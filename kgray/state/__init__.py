"""Run state: checkpoint manifest, model artifacts."""

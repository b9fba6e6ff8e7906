"""The repository's end-to-end benchmark (see NOTES.md and ``run.py``)."""

"""Closed-loop extraction benchmark for ``my_ocr_ray`` (see ``run.py``)."""

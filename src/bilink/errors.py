"""Exception types shared across the package."""

import contextlib
import csv
import zipfile
import zlib


class ValidationError(ValueError):
    """Bad input data or configuration, detected before any training work."""


class TrainingError(RuntimeError):
    """Failure during an optimization run (e.g. non-finite loss)."""


@contextlib.contextmanager
def reading(path):
    """Re-raise a failure to read or decode the input file `path` inside the
    block (an OS error, a bad encoding or value, a broken CSV, zip or deflate
    stream) as a ValidationError naming it."""
    try:
        yield
    except ValidationError:
        raise
    except (OSError, ValueError, EOFError, csv.Error, zipfile.BadZipFile, zlib.error) as exc:
        raise ValidationError(f"{path}: cannot read input file "
                              f"({type(exc).__name__}: {exc})") from exc

"""Exception types and input checks shared across the package."""

import contextlib
import csv
import dataclasses
import numbers
import zipfile
import zlib
from pathlib import Path

import numpy as np


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


def make_dir(path) -> Path:
    """Make the output directory `path`, parents included, or raise a
    ValidationError naming it (a path under a regular file, say)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot create output directory "
                              f"({type(exc).__name__}: {exc.strerror})") from exc
    return path


# Field types of the checked dataclasses as error messages name them (`cli`
# shares it).
TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
              tuple: "comma-separated integers"}


def _fits(value, kind) -> bool:
    """Whether `value` fits a field of type `kind`: a bool is neither an int
    nor a float, an int (numpy integers included) is also a float, and a
    tuple is a list or a tuple of ints."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(x, int) for x in value)
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, {bool: bool, int: numbers.Integral, float: numbers.Real}[kind])


def setting(default, ok, rule: str):
    """A dataclass field with default `default` whose value `check_fields`
    accepts when `ok(value)`; `rule` says so in the error message."""
    return dataclasses.field(default=default, metadata={"ok": ok, "rule": rule})


def check_fields(obj) -> None:
    """Check every field of the dataclass instance `obj` against its
    annotation, then every `setting` against its rule, each in declaration
    order. A numpy scalar is stored as a Python one and a tuple field as a
    tuple of ints, so that the instance stays JSON."""
    fields = dataclasses.fields(obj)
    for f in fields:
        value = getattr(obj, f.name)
        if not _fits(value, f.type):
            raise ValidationError(f"{f.name} must be {TYPE_NAMES[f.type]}, got {value!r}")
        setattr(obj, f.name, tuple(map(int, value)) if f.type is tuple
                else value.item() if isinstance(value, np.generic) else value)
    for f in fields:
        value = getattr(obj, f.name)
        if "ok" in f.metadata and not f.metadata["ok"](value):
            raise ValidationError(f"{f.name} must be {f.metadata['rule']}, got {value!r}")

"""Check reports and atomic serialization for the command-line suites."""

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector


def sanitize(value):
    """Recursively convert a value into plain JSON-serializable types.

    Numpy scalars and arrays become Python numbers and lists; complex
    numbers become [real, imag] pairs; mappings and sequences recurse.
    """
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


@dataclass(frozen=True)
class CheckReport:
    """One named check: its observed value, its bound and the verdict.

    The verdict is computed, never given: `passed` is `observed <= bound`,
    so a report cannot disagree with itself and a NaN observed fails.
    Lower-bounded quantities are therefore reported as violations or
    deviations so that smaller is always better, and whatever else a check
    wants to show goes into `params`.  A construction (a built state) has
    no bound: None, which means no verdict, and its `observed` may be any
    JSON value.  A None `runtime_ms` is left out of
    the record.
    """

    check: str
    params: dict
    observed: object
    bound: float | None
    runtime_ms: int | None = None

    @property
    def passed(self) -> bool:
        return self.bound is None or bool(self.observed <= self.bound)

    def to_dict(self) -> dict:
        record = {
            "check": self.check,
            "params": sanitize(self.params),
            "observed": sanitize(self.observed),
            "bound": sanitize(self.bound),
            "pass": self.passed,
        }
        if self.runtime_ms is not None:
            record["runtime_ms"] = int(self.runtime_ms)
        return record


def _atomic_write(path: str, text: str) -> None:
    """Write text to `path` through a same-directory temp file and rename.

    An OSError names `path`, never the temp file, and the temp file is
    removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def render_reports(reports, jsonl: bool = False) -> str:
    """JSON array (or JSON-lines) text for a sequence of CheckReports."""
    dicts = [r.to_dict() for r in reports]
    if jsonl:
        return "".join(json.dumps(d) + "\n" for d in dicts)
    return json.dumps(dicts, indent=2) + "\n"


def write_reports(path: str, reports, jsonl: bool = False) -> None:
    _atomic_write(path, render_reports(reports, jsonl=jsonl))


def dump_state(path: str, state) -> None:
    """State snapshot: qubit count plus interleaved real/imag amplitudes."""
    interleaved = np.empty(2 * state.amps.size)
    interleaved[0::2] = state.amps.real
    interleaved[1::2] = state.amps.imag
    snapshot = {"n": int(state.n), "amps": interleaved.tolist()}
    _atomic_write(path, json.dumps(snapshot, indent=2) + "\n")


def load_state(path: str) -> StateVector:
    """Read a dump_state snapshot back as a StateVector."""
    with open(path) as handle:
        payload = json.load(handle)
    flat = np.asarray(payload["amps"], dtype=float)
    return StateVector(int(payload["n"]), flat[0::2] + 1j * flat[1::2])

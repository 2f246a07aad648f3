"""Provenance headers for recorded experiment outputs.

Every checked-in ``results/*.txt`` starts with one comment line saying
exactly what produced it: repro version, seed, scale, and a digest of
the effective configuration.  A reader diffing two recorded outputs can
tell immediately whether they came from the same code and knobs; a
mismatch localises to "config changed" vs "behaviour changed".
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional

from repro._version import __version__


def config_digest(config: Any) -> str:
    """Short stable digest of an experiment's effective configuration.

    Dataclasses are serialised field-by-field (callables and enums
    degrade to their ``str``), dicts as sorted JSON, anything else via
    ``repr``.  Twelve hex chars is plenty to distinguish knob sets.
    """
    if config is None:
        payload = "{}"
    elif is_dataclass(config) and not isinstance(config, type):
        payload = json.dumps(asdict(config), sort_keys=True, default=str)
    elif isinstance(config, dict):
        payload = json.dumps(config, sort_keys=True, default=str)
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def provenance_header(
    experiment: str,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    config: Any = None,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """The one-line header every recorded output starts with."""
    parts = [f"experiment={experiment}", f"repro={__version__}"]
    if seed is not None:
        parts.append(f"seed={seed}")
    if scale is not None:
        parts.append(f"scale={scale}")
    parts.append(f"config={config_digest(config)}")
    if extra:
        parts.extend(f"{key}={value}" for key, value in sorted(extra.items()))
    return "# " + " ".join(parts)


def write_output(path: str, text: str) -> None:
    """Write one recorded output, creating its directory if needed."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

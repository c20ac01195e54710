"""Line protocol between run.py and the processes it bounds: every record
is one stdout line, ``@@pb `` followed by a JSON object with a ``kind``."""

from __future__ import annotations

import json

PREFIX = "@@pb "


def emit(kind: str, **fields) -> None:
    print(PREFIX + json.dumps({"kind": kind, **fields}), flush=True)

"""``vxserve`` with the benchmark's layer spans installed (traced runs only).

Usage: ``python3 perfbench/serve_traced.py --spans OUT.json <vxserve args>``.
The spans are kept in memory and written to ``OUT.json`` when the service
exits.  Untraced runs start ``python -m repro.parallel.service`` directly.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


def main() -> int:
    from tracer import Tracer, install, install_service

    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans OUT.json [vxserve args]",
              file=sys.stderr)
        return 2
    spans_path, argv = argv[1], argv[2:]
    import repro.parallel.service as service

    tracer = Tracer(timing=True)
    install(tracer)
    install_service(tracer)
    try:
        return service.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())

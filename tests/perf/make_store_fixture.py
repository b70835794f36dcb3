"""Write the store fixture ``tests/perf/test_store_compat.py`` reads.

The fixture is a synthesis store as an older revision of ``repro``
filled it: the result entry of one small specification and a few of
its fragment entries.  Later revisions must keep answering from it --
an exact hit from the result entry, the same fragments from the
fragment entries -- so a change to the entry layout cannot orphan the
stores users already have.

The committed fixture ``fixtures/store-dc58804`` was written at commit
``dc58804``, whose entries pickle the result with its specification
inside and each schedule and timeline as an attribute dict, by
running this script against that commit's sources from the root of
this checkout::

    mkdir -p /tmp/dc58804 && git archive dc58804 | tar -x -C /tmp/dc58804
    PYTHONHASHSEED=0 PYTHONPATH=/tmp/dc58804/src \\
        python tests/perf/make_store_fixture.py

It keeps the FORMAT stamp, the result entry and the
:data:`FRAGMENTS_KEPT` largest fragment entries, and drops the spec
index.  Run again, it writes the same fragment bytes and a result
entry that differs only in its ``cpu_seconds``.  The script needs only
the standard library and ``repro``.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "store-dc58804"

#: Fragment entries kept (the largest, so they carry every timeline
#: kind the small spec schedules).
FRAGMENTS_KEPT = 2


def fixture_spec():
    """The small specification the fixture stores: its schedule uses
    a processor, a programmable device that reconfigures and a link."""
    from repro import GeneratorConfig, generate_spec

    return generate_spec(
        GeneratorConfig(seed=11, n_graphs=2, tasks_per_graph=6)
    )


def write_fixture(out: pathlib.Path) -> None:
    """Fill a fresh store for :func:`fixture_spec` and keep its
    entries under ``out``."""
    from repro import CrusadeConfig, crusade

    with tempfile.TemporaryDirectory() as tmp:
        store = pathlib.Path(tmp)
        crusade(fixture_spec(), config=CrusadeConfig(cache_dir=str(store)))
        if out.exists():
            shutil.rmtree(out)
        (out / "results").mkdir(parents=True)
        shutil.copy2(store / "FORMAT", out / "FORMAT")
        for entry in (store / "results").glob("*.pkl"):
            shutil.copy2(entry, out / "results" / entry.name)
        fragments = sorted(
            (store / "fragments").rglob("*.pkl"),
            key=lambda path: (-path.stat().st_size, path.name),
        )
        for entry in fragments[:FRAGMENTS_KEPT]:
            shard = out / "fragments" / entry.parent.name
            shard.mkdir(parents=True, exist_ok=True)
            shutil.copy2(entry, shard / entry.name)


def main(argv=None) -> int:
    """Write the fixture; prints which ``repro`` wrote it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=FIXTURE)
    args = parser.parse_args(argv)
    import repro

    write_fixture(args.out)
    print("wrote %s with repro from %s"
          % (args.out, pathlib.Path(repro.__file__).resolve().parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())

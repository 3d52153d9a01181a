"""Print the README's table of the variant option keys each SOLVER_DISPATCH
entry reads, generated from the declaration in solvers.READS (through
harness._option_keys) and the keywords each entry passes on.

    PYTHONPATH=src python tools/option_table.py

Entries with the same keys and schemes share a row.  tests/test_dispatch.py
checks that README.md holds this table.
"""

from __future__ import annotations

from gmreskit.harness import _OPTION_FIELDS, SOLVER_DISPATCH, _option_keys
from gmreskit.solvers import READS


def table():
    rows = {}  # (keys, schemes) -> entry names, in dispatch order
    for name, (_, _, passed) in SOLVER_DISPATCH.items():
        read = _option_keys(name)
        keys = [k for k in dict.fromkeys([*_OPTION_FIELDS, *passed, "basis"]) if k in read]
        schemes = ", ".join(READS[name][1]) if "scheme" in read else ""
        rows.setdefault((", ".join(f"`{k}`" for k in keys), schemes), []).append(name)
    lines = ["| `solver` | keys | `scheme` values |", "|---|---|---|"]
    for (keys, schemes), names in rows.items():
        lines.append(f"| {', '.join(f'`{n}`' for n in names)} | {keys} | {schemes} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(table(), end="")

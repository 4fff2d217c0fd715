"""Regenerate the fixture files shipped under src/hodgenorm/data/.

Every file is produced by the canonical serializer from the worked
degenerations in hodgenorm.fixtures, so re-running this script is a no-op
unless the builders change.  Marker expectations (n, m, lam) are recorded
for every fixture whose top filtration level is a line; the loader
re-derives and cross-checks them on every parse.
"""

import pathlib
import sys

from hodgenorm.cli import dump_document, fixture_document, _show_scalar
from hodgenorm.fixtures import (
    orbit_elliptic,
    orbit_hermitian,
    orbit_pair,
    orbit_varying,
    weight_one,
)
from hodgenorm.induced import induce, tate_normalize

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "hodgenorm" / "data"


def expectations_for(data):
    try:
        mk = data.markers
    except (ValueError, ArithmeticError):
        return None
    return {"n": mk.n, "m": mk.m, "lam": _show_scalar(mk.lam)}


def doc_for_spec(spec):
    data = spec.structure
    return fixture_document(data, spec.zeta_coeffs, spec.n_coords,
                            expectations_for(data))


def documents():
    """Each shipped file name with the fixture document its builder makes."""
    docs = {
        "elliptic.json": doc_for_spec(orbit_elliptic()),
        "varying.json": doc_for_spec(orbit_varying()),
        "hermitian.json": doc_for_spec(orbit_hermitian()),
        "pair.json": doc_for_spec(orbit_pair()),
    }
    a1_input = weight_one(1)
    docs["a1_input.json"] = fixture_document(
        a1_input, expectations=expectations_for(a1_input))
    a1 = tate_normalize(induce(a1_input))
    docs["a1.json"] = fixture_document(a1, expectations=expectations_for(a1))
    return docs


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, doc in sorted(documents().items()):
        path = OUT / name
        text = dump_document(doc)
        old = path.read_text() if path.exists() else None
        path.write_text(text)
        status = "unchanged" if old == text else "wrote"
        print(f"{status}  {path.relative_to(OUT.parent.parent.parent)}  "
              f"({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

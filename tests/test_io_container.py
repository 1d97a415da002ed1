"""The array manifest of the binary container: round trips of mixed shapes,
and which entry a defect is reported against; and the one write path."""

import ast
from pathlib import Path

import numpy as np
import pytest

from attnbof.errors import DataFormatError
from attnbof.io_container import pack_arrays, unpack_arrays
from attnbof.model import Model, ModelConfig

# bit patterns a float64 round trip must keep: signed zero, subnormals, extremes
SPECIAL = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300])


def checkpoint_like():
    """(name, matrix) pairs shaped like a conv + csa checkpoint's parameters."""
    net = Model.build(ModelConfig(feature_dim=3, classes=4, codewords=5, latent_dim=2,
                                  seq_len=7, attention="csa", heads=2, frontend="conv",
                                  conv_channels=6, seed=1))
    params = [(name, p.copy()) for name, p in net.params.items()]
    params[0][1].flat[:len(SPECIAL)] = SPECIAL[:params[0][1].size]
    return params


def fseq_like():
    """(label, matrix) pairs of two sequence lengths."""
    rng = np.random.default_rng(3)
    items = [(i % 3, rng.standard_normal((4, 6 if i % 2 else 9))) for i in range(7)]
    items[2][1][0, :len(SPECIAL)] = SPECIAL
    return items


@pytest.mark.parametrize("key,entries", [("name", checkpoint_like()), ("label", fseq_like())],
                         ids=["checkpoint", "fseq"])
def test_mixed_shapes_round_trip_bit_exactly(key, entries):
    assert len({a.shape for _, a in entries}) > 1
    manifest, arrays = pack_arrays(key, entries)
    payload = bytearray(b"".join(arrays))   # writable, as read_container's buffer is
    loaded = unpack_arrays("f", key, manifest, payload)
    assert [v for v, _ in loaded] == [v for v, _ in entries]
    for (_, got), (_, want) in zip(loaded, entries):
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(want, dtype="<f8").tobytes()
    loaded[0][1][...] = 0.0  # writing one item changes no other
    assert loaded[1][1].tobytes() == entries[1][1].tobytes()


def _drop_rows(manifest, payload, i):
    del manifest[i]["rows"]
    return payload


def _bool_cols(manifest, payload, i):
    manifest[i]["cols"] = True
    return payload


def _shift_offset(manifest, payload, i):
    manifest[i]["offset"] += 8
    return payload


def _zero_rows(manifest, payload, i):
    manifest[i]["rows"] = 0
    return payload


def _nan_value(manifest, payload, i):
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[manifest[i]["offset"] // 8 + 5] = np.nan
    return values.tobytes()


DEFECTS = [_drop_rows, _bool_cols, _shift_offset, _zero_rows, _nan_value]


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("i", [0, 3, 6])
def test_a_defect_is_reported_against_its_own_entry(defect, i):
    manifest, arrays = pack_arrays("label", fseq_like())
    payload = b"".join(arrays)
    payload = defect(manifest, payload, i)
    with pytest.raises(DataFormatError, match=f"manifest entry {i} "):
        unpack_arrays("f", "label", manifest, payload)


@pytest.mark.parametrize("field", ["rows", "cols", "offset"])
@pytest.mark.parametrize("i", [0, 3, 6])
def test_huge_manifest_values_are_format_errors(field, i):
    manifest, arrays = pack_arrays("label", fseq_like())
    payload = b"".join(arrays)
    manifest[i][field] = 10**30
    with pytest.raises(DataFormatError):
        unpack_arrays("f", "label", manifest, payload)


# ---------------------------------------------------------------------------
# the one write path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attnbof"
# the last name of a call that writes whatever it is called with
WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed",
           "savetxt"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open``-like call may write: a mode string with w, a, x or
    +, or a ``mode`` keyword the source does not spell out."""
    for arg in call.args + [k.value for k in call.keywords if k.arg == "mode"]:
        value = arg.value if isinstance(arg, ast.Constant) else None
        if isinstance(value, str) and set(value) <= set("rwxabt+") and set(value) & set("wax+"):
            return True
    return any(k.arg == "mode" and not isinstance(k.value, ast.Constant)
               for k in call.keywords)


def file_writes(source: str, allowed: str | None = None) -> list[str]:
    """``line: call`` for each call in ``source`` that creates, replaces or
    writes a file, outside the function named ``allowed``."""
    found = []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            if node.name != allowed:
                self.generic_visit(node)

        def visit_Call(self, node):
            name = ast.unparse(node.func)
            last = name.rsplit(".", 1)[-1]
            if (last in WRITERS or name in ("os.open", "os.replace", "os.rename")
                    or name.startswith("tempfile.")
                    or last in ("open", "fdopen") and _opens_for_writing(node)):
                found.append(f"{node.lineno}: {name}")
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_the_package_writes_files_only_through_write_file():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "io_container.py" in sources
    writes = {path.name: file_writes(path.read_text(), "write_file"
                                     if path.name == "io_container.py" else None)
              for path in sources}
    assert not {name: found for name, found in writes.items() if found}
    assert file_writes((PACKAGE / "io_container.py").read_text()), "write_file writes nothing"


@pytest.mark.parametrize("line", [
    'open(p, "wb")', 'open(p, mode="a")', 'open(p, "x")', 'open(p, "r+")', 'open(p, mode=m)',
    'os.fdopen(fd, "w")', 'Path(p).open("w")', 'Path(p).write_text(s)', 'p.write_bytes(b)',
    'os.open(p, flags)', 'os.replace(a, b)', 'tempfile.mkstemp()', 'np.savetxt(p, m)',
    'm.tofile(p)'])
def test_the_guard_sees_each_kind_of_write(line):
    assert len(file_writes(line)) == 1


@pytest.mark.parametrize("line", ['open(p)', 'open(p, "rb")', 'open(p, mode="r")',
                                  'Path(p).read_text()', 'os.fstat(fd)'])
def test_the_guard_passes_reads(line):
    assert file_writes(line) == []

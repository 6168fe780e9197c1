"""The running example's CLI outputs match the goldens under fixtures/running/outputs/ byte for byte."""

from support import write_running_outputs


def test_cli_outputs_match_goldens(running_dir, tmp_path):
    write_running_outputs(tmp_path)
    goldens = sorted(p.name for p in (running_dir / "outputs").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == goldens
    for name in goldens:
        assert (tmp_path / name).read_bytes() == (running_dir / "outputs" / name).read_bytes(), name

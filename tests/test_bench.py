"""``repro-bench`` housekeeping: the work directories its modes create."""

import os
import tempfile

from repro.tools.bench import mode_workdir


def test_mode_workdir_lives_under_tmpdir_and_is_removed(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    with mode_workdir("repro-soak-") as workdir:
        assert os.path.dirname(workdir) == str(tmp_path)
        assert os.path.basename(workdir).startswith("repro-soak-")
        with open(os.path.join(workdir, "cache.json"), "w") as handle:
            handle.write("{}")
    assert os.listdir(tmp_path) == []


def test_mode_workdir_is_removed_when_the_mode_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    try:
        with mode_workdir("repro-serve-cache-"):
            raise RuntimeError("mode failed")
    except RuntimeError:
        pass
    assert os.listdir(tmp_path) == []


def test_a_given_cache_dir_is_kept(tmp_path):
    given = tmp_path / "cache"
    given.mkdir()
    with mode_workdir("repro-serve-cache-", str(given)) as workdir:
        assert workdir == str(given)
    assert given.is_dir()

import pytest


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    # tests that write artifacts to a relative output_dir (out/...) write
    # them under their own tmp_path, never into the checkout
    monkeypatch.chdir(tmp_path)

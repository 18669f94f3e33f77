import json
import os
import stat

from mapgenus.cli import cache_lookup_or_compute, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_maps_subcommand(capsys):
    code, out, _ = run(capsys, "maps", "--valence", "4", "--vertices", "1")
    assert code == 0
    assert json.loads(out) == {"0": 2, "1": 1}


def test_maps_with_genus_filter(capsys):
    code, out, _ = run(capsys, "maps", "--valence", "3", "--vertices", "2", "--genus", "1")
    assert code == 0
    assert json.loads(out) == {"1": 3}


def test_z0_payload(capsys):
    code, out, _ = run(capsys, "z0", "--nu", "2", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "12"
    assert doc["zetas"] == ["1", "2", "5", "14", "42", "132"]


def test_eg_payload_and_exit(capsys):
    code, out, _ = run(capsys, "eg", "--nu", "2", "--g", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 3
    assert doc["constant_term"] == "1/240"
    assert doc["pole_order"] == 5
    assert doc["verification"]["status"] == "pass"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "unknown-subcommand")
    assert code == 2
    code, _, _ = run(capsys, "maps", "--valence", "0", "--vertices", "1")
    assert code == 2


def test_impossible_enumeration_is_usage_error(capsys):
    # odd half-edge count: no matchings exist for that request
    code, _, err = run(capsys, "maps", "--valence", "3", "--vertices", "1")
    assert code == 2
    # desk-scale cap exceeded
    code, _, _ = run(capsys, "maps", "--valence", "4", "--vertices", "6")
    assert code == 2


def test_verification_failure_exit_code(monkeypatch, capsys):
    # an injected bug in the verification path must surface as exit 1
    import mapgenus.cli as cli_mod
    from mapgenus.errors import VerificationFailure

    def broken(*args, **kwargs):
        raise VerificationFailure("injected")

    monkeypatch.setattr(cli_mod, "verify_lattice_equations", broken)
    code, _, err = run(capsys, "verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2")
    assert code == 1 and "injected" in err


def test_maps_five_quartic_vertices(capsys):
    code, out, _ = run(capsys, "maps", "--valence", "4", "--vertices", "5")
    assert code == 0
    assert json.loads(out) == {"0": 17915904, "1": 192098304, "2": 348033024, "3": 58060800}


def test_report_failed_entry_fails_document(monkeypatch, capsys):
    # a wrong matching tally must turn the whole report into a failure
    from types import SimpleNamespace

    import mapgenus.cli as cli_mod

    monkeypatch.setattr(cli_mod, "fatgraph_oracle", SimpleNamespace(kappa_counts=lambda j, m: {0: 36, 1: 59}))
    code, out, _ = run(capsys, "report", "--nu", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["status"] == "fail"
    assert {"tag": "matching_tally", "status": "fail"} in doc["identities"]


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "zg", "--nu", "2", "--g", "1")
    _, out2, _ = run(capsys, "zg", "--nu", "2", "--g", "1")
    assert out1 == out2


def test_formats(capsys):
    code, out, _ = run(capsys, "--format", "csv", "z0", "--nu", "2", "--order", "3")
    assert code == 0 and "zetas[0],1" in out
    code, out, _ = run(capsys, "--format", "text", "z0", "--nu", "2", "--order", "3")
    assert code == 0 and "c" in out


def test_verify_subcommands(capsys):
    code, out, _ = run(
        capsys, "verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert {i["tag"] for i in doc["identities"]} >= {"string", "toda", "hirota"}
    code, out, _ = run(capsys, "verify", "odd", "--nu", "1", "--order", "6")
    assert code == 0


def test_cache_roundtrip(tmp_path, capsys):
    calls = []

    def producer():
        calls.append(1)
        return {"value": 7}

    cache = str(tmp_path / "cache")
    a = cache_lookup_or_compute(cache, "k1", producer)
    b = cache_lookup_or_compute(cache, "k1", producer)
    assert a == b == {"value": 7}
    assert len(calls) == 1
    # version-bumped key misses
    c = cache_lookup_or_compute(cache, "k2", producer)
    assert len(calls) == 2 and c == {"value": 7}
    # no-cache bypasses entirely
    cache_lookup_or_compute(cache, "k1", producer, no_cache=True)
    assert len(calls) == 3


def test_cache_engine_version_in_key(tmp_path, monkeypatch):
    import mapgenus.cli as cli_mod

    calls = []

    def producer():
        calls.append(1)
        return {"v": 1}

    cache = str(tmp_path)
    cache_lookup_or_compute(cache, "k", producer)
    monkeypatch.setattr(cli_mod, "__version__", "999.0.0")
    cache_lookup_or_compute(cache, "k", producer)
    assert len(calls) == 2  # version bump misses the old entry


def test_cache_corrupt_entry_recovers(tmp_path, capsys):
    cache = str(tmp_path)
    calls = []

    def producer():
        calls.append(1)
        return {"value": 1}

    cache_lookup_or_compute(cache, "k", producer)
    (entry,) = [p for p in os.listdir(cache) if p.endswith(".json")]
    with open(os.path.join(cache, entry), "w") as fh:
        fh.write("{ not json")
    out = cache_lookup_or_compute(cache, "k", producer)
    assert out == {"value": 1} and len(calls) == 2
    # and the entry was repaired
    out = cache_lookup_or_compute(cache, "k", producer)
    assert len(calls) == 2


def test_cache_readonly_dir_warns_and_computes(tmp_path, capsys):
    cache = tmp_path / "ro"
    cache.mkdir()
    os.chmod(cache, stat.S_IRUSR | stat.S_IXUSR)
    try:
        out = cache_lookup_or_compute(str(cache), "k", lambda: {"v": 2})
        assert out == {"v": 2}
        err = capsys.readouterr().err
        assert "cache not writable" in err or os.geteuid() == 0
    finally:
        os.chmod(cache, stat.S_IRWXU)


def test_cli_maps_entrypoint_identity():
    # second invocation through a cache directory serves identical bytes
    import subprocess
    import sys

    env = dict(os.environ)
    out1 = subprocess.run(
        [sys.executable, "-m", "mapgenus", "maps", "--valence", "4", "--vertices", "2"],
        capture_output=True,
        env=env,
    )
    assert out1.returncode == 0
    assert json.loads(out1.stdout) == {"0": 36, "1": 60}

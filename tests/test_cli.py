import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

from mapgenus import errors
from mapgenus.cli import CACHE_ENV, cache_lookup_or_compute, dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of the canonical closed-form documents (genus 0 and 1 print
# their rational part through DLaurent.to_ratfn; the higher-genus jobs reach
# past the benchmark's valences and genera)
CLOSED_FORM_DIGESTS = {
    "eg --nu 2 --g 0": "9dccd8033e8ecbb80b788ff6281e9a49299a419db0bce0ba65e07ff22ba320ba",
    "eg --nu 2 --g 1": "05e19bcf8cd9a3a40f0f9e76ff6256c8e60299fc2583c18b8b0fdfe27b110d3b",
    "eg --nu 3 --g 0": "ba2fa8b2a22b9b20a7b93f702dbbf26cc84ca2edd3676d33c7e366a04581acac",
    "eg --nu 3 --g 1": "23e150ac4b5d8e9c98befe40a1c74c9baeb9c3ae54cd84a637b9721fdf63fc76",
    "eg --nu 2 --g 6": "143bc77b77eb453b4ed454bca3c2a343ce547a7ba90c9753367d381cf1d41337",
    "zg --nu 4 --g 3": "e5a4533b11d967bc9fe4abcf01648b2de83f4bf827a6ad6b7a73ee59d8c1f530",
    "eg --nu 4 --g 3": "fb9b7672a8fbd1ebeef5ef9a4b8644ceb3b1bdf767c89fcbdc5a4933d6346ad6",
    "eg --nu 2 --g 10": "018614843ab18d942379c880675d8cd6ee4c59b44892d0777a76d04fa80cdb7a",
    "eg --nu 3 --g 6": "b8a8505b95f5cc5381d737d1387bb6db30ff05f4fcdf52be1ac841a5f02722de",
    "eg --nu 4 --g 6": "dd37110e5464209f900a05a64494a2aec5b6480827d2982b5e72328ee476c840",
    "zg --nu 2 --g 8": "cdded096ca8dac41eb64ca3af52c01085972c9479d121387db3d35a35ed6b4d1",
    "zg --nu 3 --g 5": "ba8919b291b43e72e84bc00dbd767a018c2af72466349179dbe2de89ea199dc7",
    "verify continuum --nu 2 --g 4": "2e56995dc2fe7d69964ceccbc9c50786177df3a17b327e9a9f49c3c1576bfdd6",
    "verify continuum --nu 3 --g 3": "42741145978da92b5be373921990d9d93a8ebc122154220673dfbff894ace4b3",
    "report --nu 2": "0c0381198c4ade85ff22d345d017fe90612e555b33b45f6c8257e76041f516f1",
    "report --nu 4": "5ff847af33aa481f752cfa16d6a9e3dd35c4ba24be87d03c196d7314af7e0000",
    "trivalent --mmax 6": "2891e4939e41283862a1bd55a83d07f5eaac94471ccbfeabecfb6731847934ad",
    "z0 --nu 5 --order 30": "18c54679add0ecb05a9afa0bd978e4a4882bb53c0872665046c4c7ef80cd84d5",
    "eg --nu 5 --g 3": "758d81ad14a2bcb9cbc3b99003cd940c757c94ce841dec26f7a2d1546c8cbbed",
    "verify continuum --nu 5 --g 2": "228075d766879d4560447a319df91cf3e764709399c2f162b82a35f67d7cab0f",
    "verify continuum --nu 6 --g 2": "4b45176eee8925cda0739ddad0ebaaa3803684da631c4cb18366f4caff4bda9b",
    "eg --nu 8 --g 3": "61fe4bd047bade2548538784e8238d6085c2da9df16043bafb556c1110b12fe6",
    "zg --nu 8 --g 3": "61330f6047dace6549896912080e3d07314e0b77e1ecc4687f43aa8d032cfacc",
}


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
    from mapgenus import lattice_oracle
    from mapgenus.errors import VerificationFailure

    def broken(*args, **kwargs):
        raise VerificationFailure("injected")

    monkeypatch.setattr(lattice_oracle, "verify_lattice_equations", broken)
    code, _, err = run(capsys, "verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2")
    assert code == 1 and "injected" in err


def test_maps_miscount_is_verification_failure(monkeypatch, capsys):
    # a recursion that miscounts fails a check (exit 1); it is not a usage error
    from mapgenus import fatgraph_oracle

    connected = fatgraph_oracle._connected
    connected.cache_clear()
    try:
        monkeypatch.setattr(
            fatgraph_oracle, "_connected", lambda j, g, degs, v: connected(j, g, degs, v) + (not degs)
        )
        code, out, err = run(capsys, "--no-cache", "maps", "--valence", "4", "--vertices", "2")
        assert code == 1 and out == "" and "lost mass" in err
        monkeypatch.undo()
    finally:
        connected.cache_clear()
    code, out, _ = run(capsys, "--no-cache", "maps", "--valence", "4", "--vertices", "2")
    assert code == 0 and json.loads(out) == {"0": 36, "1": 60}


def test_maps_five_quartic_vertices(capsys):
    code, out, _ = run(capsys, "maps", "--valence", "4", "--vertices", "5")
    assert code == 0
    assert json.loads(out) == {"0": 17915904, "1": 192098304, "2": 348033024, "3": 58060800}


def test_report_failed_entry_fails_document(monkeypatch, capsys):
    # a wrong matching tally must turn the whole report into a failure; the
    # trivalent entry still reads the real counts
    from mapgenus import fatgraph_oracle

    real = fatgraph_oracle.kappa_counts
    monkeypatch.setattr(
        fatgraph_oracle, "kappa_counts", lambda j, m: {0: 36, 1: 59} if (j, m) == (4, 2) else real(j, m)
    )
    code, out, _ = run(capsys, "report", "--nu", "2")
    doc = json.loads(out)
    assert code == 1
    assert doc["status"] == "fail"
    assert {"tag": "matching_tally", "status": "fail"} in doc["identities"]


def test_report_rejects_its_fit_sites_before_any_engine_work(monkeypatch, capsys):
    # from nu = 5 on, the genus-1 match at t-order 3 has no surplus site
    # among [4, 6, 8, 10]: that usage error, which names the valences report
    # takes, comes before any table, z-table or matching is built; nu = 1,
    # which has no higher genus, and nu = 0 are rejected just as early
    from mapgenus import checks, continuum_even, fatgraph_oracle, lattice_oracle

    def engine(*args, **kwargs):
        raise AssertionError("engine work before the fit sites were checked")

    for module, name in (
        (lattice_oracle, "recurrence_table"),
        (continuum_even, "build_ztable"),
        (checks, "build_ztable"),
        (fatgraph_oracle, "kappa_counts"),
    ):
        monkeypatch.setattr(module, name, engine)
    for nu in ("5", "8"):
        code, out, err = run(capsys, "--no-cache", "report", "--nu", nu)
        assert (code, out) == (2, "")
        assert err == (
            "usage error: report takes --nu 2..4: its genus-1 fit over sites 4, 6, 8, 10 at t-order 3"
            " leaves no surplus site at --nu %s\n" % nu
        )
    with pytest.raises(errors.RejectedInput, match="no surplus site"):
        lattice_oracle.asymptotic_match(3, 1, [4, 6], 3)
    assert run(capsys, "--no-cache", "report", "--nu", "0") == (2, "", "usage error: --nu must be >= 1\n")
    assert run(capsys, "--no-cache", "report", "--nu", "1") == (
        2,
        "",
        "usage error: --nu must be >= 2 (nu = 1 has no higher genus)\n",
    )


def test_verify_lattice_failed_identity_fails_document(monkeypatch, capsys):
    # a failed Hirota report must print a "fail" document and exit 1
    from mapgenus import lattice_oracle

    failed = {
        "equation": "hirota",
        "sites": [{"n": 1, "check": "tau_product", "status": "fail"}],
        "status": "fail",
    }
    monkeypatch.setattr(lattice_oracle, "verify_hirota", lambda table: failed)
    code, out, _ = run(capsys, "verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2")
    doc = json.loads(out)
    assert code == 1 and doc["status"] == "fail"
    statuses = {i["tag"]: i["status"] for i in doc["identities"]}
    assert statuses == {"string": "pass", "toda": "pass", "hirota": "fail"}


def test_verify_odd_and_continuum_failed_identity_fails_document(monkeypatch, capsys):
    import mapgenus.checks as checks
    import mapgenus.continuum_odd as continuum_odd

    monkeypatch.setattr(
        continuum_odd, "verify_leading_residuals", lambda pair, P=None: {"status": "fail"}
    )
    code, out, _ = run(capsys, "verify", "odd", "--nu", "1", "--order", "6")
    assert code == 1 and json.loads(out)["status"] == "fail"
    monkeypatch.setattr(
        checks, "verify_burgers", lambda nu, T, planar: {"identity": "leading_transport", "status": "fail"}
    )
    code, out, _ = run(capsys, "verify", "continuum", "--nu", "2", "--g", "1")
    assert code == 1 and json.loads(out)["status"] == "fail"


def short_and_longer(capsys, argv, option, orders):
    """The documents of argv at each order and at the default order: each
    short series is the default one cut, and the rest is the same."""
    code, out, _ = run(capsys, "--no-cache", *argv)
    assert code == 0
    longer = json.loads(out)
    for order in orders:
        code, out, _ = run(capsys, "--no-cache", *argv, option, str(order))
        assert code == 0
        doc = json.loads(out)
        assert doc["series"]["trunc"] == order < longer["series"]["trunc"]
        assert doc["series"]["coeffs"] == longer["series"]["coeffs"][: order + 1]
        assert {k: v for k, v in doc.items() if k != "series"} == {k: v for k, v in longer.items() if k != "series"}


def test_zg_order_without_surplus_prints_the_longer_series_cut(capsys):
    # z_g is solved in the D ring, so no order is read to fit it: 7 orders,
    # no more than z_2's 3g + 1 numerator unknowns, print the same closed form
    short_and_longer(capsys, ("zg", "--nu", "2", "--g", "2"), "--order", (6, 7))


def test_zg_order_below_the_z_1_unknowns_prints_the_longer_series_cut(capsys):
    # nor does z_g need the lower z_k fitted: orders below z_1's 4 numerator
    # unknowns print the same closed form as well
    short_and_longer(capsys, ("zg", "--nu", "2", "--g", "2"), "--order", (1, 3))


def test_eg_short_order_prints_the_longer_series_cut(capsys):
    # e_2 and the z_g behind it are both solved in the D ring: a short
    # order only cuts the printed series, and the read-back still reaches
    # both resonant orders, 2 and 3, so orders 1 and 2 list them too
    short_and_longer(capsys, ("eg", "--nu", "2", "--g", "2"), "--series-order", (1, 2, 3, 6, 7))


def test_eg_series_order_above_and_below_the_z_table_truncation(capsys):
    # the z-table stops at max(3g + 12, 16) = 21 at g = 3 whatever order
    # e_3 is printed to: above the default 5g + 12 = 27 the closed form and
    # its checks are unchanged and the series only grows, and an order
    # below 3g + 12 only cuts the series
    base = ("--no-cache", "eg", "--nu", "2", "--g", "3")
    code, out, _ = run(capsys, *base)
    assert code == 0
    default = json.loads(out)
    code, out, _ = run(capsys, *base, "--series-order", "40")
    assert code == 0
    longer = json.loads(out)
    for key in ("ratfn", "laurent", "pole_order", "resonant_orders", "verification"):
        assert longer[key] == default[key]
    assert longer["series"]["trunc"] == 40 and default["series"]["trunc"] == 27
    assert longer["series"]["coeffs"][:28] == default["series"]["coeffs"]
    code, out, _ = run(capsys, *base, "--series-order", "14")
    assert code == 0
    shorter = json.loads(out)
    assert shorter["ratfn"] == default["ratfn"]
    assert shorter["series"]["coeffs"] == default["series"]["coeffs"][:15]


@pytest.mark.parametrize(
    "argv",
    [
        ("eg", "--nu", "2", "--g", "-1"),
        ("zg", "--nu", "2", "--g", "-1"),
        ("verify", "lattice", "--nu", "2", "--nmax", "0"),
        ("verify", "continuum", "--nu", "2", "--g", "-2"),
        ("eg", "--nu", "2", "--g", "0", "--series-order", "0"),
        ("eg", "--nu", "2", "--g", "1", "--series-order", "0"),
        ("maps", "--valence", "4", "--vertices", "2", "--genus", "-1"),
        ("zg", "--nu", "0", "--g", "1"),
        ("eg", "--nu", "0", "--g", "1"),
        ("verify", "continuum", "--nu", "0", "--g", "1"),
    ],
)
def test_invalid_input_is_usage_error(capsys, argv):
    # rejected up front: exit 2, a one-line message, no document
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zg", "--nu", "0", "--g", "2"), "--nu must be >= 1"),
        (("zg", "--nu", "2", "--g", "2", "--order", "0"), "--order must be >= 1"),
        (("z0", "--nu", "-1"), "--nu must be >= 1"),
        (("z0", "--nu", "2", "--order", "0"), "--order must be >= 1"),
        (("eg", "--nu", "0", "--g", "3"), "--nu must be >= 1"),
        (("eg", "--nu", "2", "--g", "3", "--series-order", "0"), "--series-order must be >= 1"),
        (("verify", "continuum", "--nu", "0"), "--nu must be >= 1"),
        (("verify", "continuum", "--nu", "2", "--order", "0"), "--order must be >= 1"),
        (("verify", "continuum", "--nu", "2", "--order", "-3"), "--order must be >= 1"),
        (("verify", "lattice", "--nu", "2", "--torder", "-1"), "--torder must be >= 0"),
        (("verify", "odd", "--nu", "1", "--order", "0"), "--order must be >= 1"),
        (("trivalent", "--mmax", "3"), "--mmax must be even and >= 2"),
        (("maps", "--valence", "0", "--vertices", "2"), "--valence must be >= 1"),
        (("maps", "--valence", "4", "--vertices", "0"), "--vertices must be >= 1"),
        (("verify", "odd", "--nu", "0", "--order", "3"), "--nu must be >= 1"),
        (("verify", "lattice", "--nu", "0"), "--nu must be >= 1"),
        (("eg", "--nu", "1", "--g", "0"), "--nu must be >= 2 (nu = 1 has no higher genus)"),
        (("eg", "--nu", "1", "--g", "3"), "--nu must be >= 2 (nu = 1 has no higher genus)"),
        (("trivalent", "--mmax", "22"), "--mmax must be <= 6: the map counts stop at 20 half-edges"),
        (
            ("maps", "--valence", "4", "--vertices", "6"),
            "--valence 4 with --vertices 6 gives 24 half-edges, past the cap of 20",
        ),
    ],
)
def test_usage_errors_name_the_option(capsys, argv, message):
    assert run(capsys, "--no-cache", *argv) == (2, "", "usage error: %s\n" % message)


def test_valence_two_has_only_the_planar_entry(capsys):
    # nu = 1 passes the option check; D = 1 there, so only genus 0 exists
    code, out, _ = run(capsys, "--no-cache", "zg", "--nu", "1", "--g", "0")
    assert code == 0 and json.loads(out)["ratfn"] == {"var": "z0", "num": ["0", "1"], "den_base": ["1"], "den_pow": 0}
    code, out, err = run(capsys, "--no-cache", "zg", "--nu", "1", "--g", "1")
    assert (code, out, err) == (2, "", "usage error: --nu must be >= 2 (nu = 1 has no higher genus)\n")


# every engine error with the exit code and stderr prefix the README gives it
ENGINE_ERRORS = [
    (errors.VerificationFailure, 1, "verification failure:"),
    (errors.PoleAtBasepoint, 1, "engine error:"),
    (errors.DegenerateTable, 1, "engine error:"),
    (errors.ReconstructionFailed, 3, "reconstruction/resonance failure:"),
    (errors.ResonanceFailure, 3, "reconstruction/resonance failure:"),
    (errors.InsufficientData, 3, "reconstruction/resonance failure:"),
    (errors.RejectedInput, 2, "usage error:"),
    (errors.NoMatchingExists, 2, "usage error:"),
    (errors.SizeLimit, 2, "usage error:"),
]


def test_engine_error_cases_cover_every_subclass():
    assert {error for error, _, _ in ENGINE_ERRORS} == set(errors.EngineError.__subclasses__())


@pytest.mark.parametrize("error, code, prefix", ENGINE_ERRORS, ids=[e.__name__ for e, _, _ in ENGINE_ERRORS])
def test_engine_error_exit_code_and_prefix(monkeypatch, tmp_path, capsys, error, code, prefix):
    # raised by a cached command's payload builder: one stderr line, no
    # document, and no cache entry
    import mapgenus.continuum_even as continuum_even

    def broken(**options):
        raise error("injected")

    monkeypatch.setattr(continuum_even, "payload_z0", broken)
    got, out, err = run(capsys, "--cache-dir", str(tmp_path), "z0", "--nu", "2")
    assert (got, out, err) == (code, "", prefix + " injected\n")
    assert os.listdir(tmp_path) == []


def test_cache_key_covers_every_option(tmp_path, capsys):
    # runs that differ in one option each store their own entry and print
    # their own document; the uncached commands store nothing
    cache = str(tmp_path)
    pairs = [
        (("z0", "--nu", "2", "--order", "3"), ("z0", "--nu", "2", "--order", "4")),
        (("maps", "--valence", "4", "--vertices", "2"), ("maps", "--valence", "4", "--vertices", "2", "--genus", "1")),
        (("eg", "--nu", "2", "--g", "2"), ("eg", "--nu", "2", "--g", "2", "--series-order", "24")),
    ]
    stored = 0
    for pair in pairs:
        docs = []
        for argv in pair:
            code, out, _ = run(capsys, "--cache-dir", cache, *argv)
            stored += 1
            assert code == 0 and len(os.listdir(cache)) == stored, argv
            assert run(capsys, "--no-cache", *argv)[1] == out, argv
            assert run(capsys, "--cache-dir", cache, *argv)[1] == out, argv
            docs.append(out)
        assert docs[0] != docs[1], pair
    assert run(capsys, "--cache-dir", cache, "verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2")[0] == 0
    assert run(capsys, "--cache-dir", cache, "report", "--nu", "2")[0] == 0
    assert len(os.listdir(cache)) == stored


def test_canonical_eg_zg_documents_are_pinned(capsys):
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        digests = {k: v for k, v in json.load(fh).items() if k.split()[0] in ("eg", "zg")}
    assert len(digests) >= 5
    digests.update(CLOSED_FORM_DIGESTS)
    for command, digest in sorted(digests.items()):
        code, out, _ = run(capsys, "--no-cache", *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


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

    document = '{"value": 7}\n'
    cache = str(tmp_path / "cache")
    # a store returns the payload and the document it stored; a hit the
    # stored document alone, undecoded
    a = cache_lookup_or_compute(cache, "k1", producer)
    b = cache_lookup_or_compute(cache, "k1", producer)
    assert a == ({"value": 7}, document) and b == (None, document)
    assert len(calls) == 1
    # version-bumped key misses
    c = cache_lookup_or_compute(cache, "k2", producer)
    assert len(calls) == 2 and c == ({"value": 7}, document)
    # no-cache bypasses entirely, and renders nothing
    assert cache_lookup_or_compute(cache, "k1", producer, no_cache=True) == ({"value": 7}, None)
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


def test_cache_source_digest_in_key(tmp_path, monkeypatch):
    import mapgenus.cli as cli_mod

    calls = []

    def producer():
        calls.append(1)
        return {"v": 1}

    cache = str(tmp_path)
    cache_lookup_or_compute(cache, "k", producer)
    cache_lookup_or_compute(cache, "k", producer)
    assert len(calls) == 1
    monkeypatch.setattr(cli_mod, "source_digest", lambda: "0" * 64)
    cache_lookup_or_compute(cache, "k", producer)
    assert len(calls) == 2  # changed sources miss the old entry


def test_cache_store_drops_entries_of_other_sources(tmp_path, monkeypatch):
    import mapgenus.cli as cli_mod

    cache = str(tmp_path)
    (tmp_path / "notes.txt").write_bytes(b"k | engine 0 | source %s\n" % (b"1" * 64))
    (tmp_path / "unparsed.entry").write_bytes(b"no key line here")
    monkeypatch.setattr(cli_mod, "source_digest", lambda: "1" * 64)
    cache_lookup_or_compute(cache, "k", lambda: {"v": 1})
    cache_lookup_or_compute(cache, "other", lambda: {"v": 2})
    first = {name for name in os.listdir(cache) if name.endswith(".entry")} - {"unparsed.entry"}
    assert len(first) == 2  # a store keeps the entries of its own sources
    monkeypatch.setattr(cli_mod, "source_digest", lambda: "2" * 64)
    cache_lookup_or_compute(cache, "k", lambda: {"v": 1})
    left = sorted(os.listdir(cache))
    assert len(left) == 3 and "notes.txt" in left and "unparsed.entry" in left
    (second,) = set(left) - {"notes.txt", "unparsed.entry"}
    assert second not in first
    with open(os.path.join(cache, second), "rb") as fh:
        assert fh.readline().endswith(b" | source %s\n" % (b"2" * 64))


def test_cache_entry_removed_before_its_read_is_a_plain_miss(tmp_path, monkeypatch, capsys):
    # a store under other sources may remove an entry after an existence
    # test would have seen it: the open's FileNotFoundError is a miss, not
    # a corrupt entry
    exists = os.path.exists
    monkeypatch.setattr(os.path, "exists", lambda p: p.endswith(".entry") or exists(p))
    assert cache_lookup_or_compute(str(tmp_path), "k", lambda: {"v": 1})[0] == {"v": 1}
    assert capsys.readouterr().err == ""
    assert len(os.listdir(tmp_path)) == 1


# each corrupts the stored entry, given as (key line, digest line, document)
CORRUPTIONS = {
    "not_json": lambda key, digest, doc: b"{ not json",
    "list": lambda key, digest, doc: b"[]",
    "null": lambda key, digest, doc: b"null",
    "string": lambda key, digest, doc: b'"x"',
    "foreign_key": lambda key, digest, doc: b"\n".join((key + b"x", digest, doc)),
    "altered_document": lambda key, digest, doc: b"\n".join((key, digest, doc.replace(b"1", b"2"))),
    "no_document": lambda key, digest, doc: b"\n".join((key, digest)),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_cache_corrupt_entry_recovers(tmp_path, capsys, corrupt):
    cache = str(tmp_path)
    calls = []

    def producer():
        calls.append(1)
        return {"value": 1}

    cache_lookup_or_compute(cache, "k", producer)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "rb") as fh:
        stored = fh.read()
    with open(path, "wb") as fh:
        fh.write(CORRUPTIONS[corrupt](*stored.split(b"\n", 2)))
    out = cache_lookup_or_compute(cache, "k", producer)
    assert out == ({"value": 1}, '{"value": 1}\n') and len(calls) == 2
    assert capsys.readouterr().err == "corrupt cache entry %s; recomputing\n" % entry
    # and the entry was repaired
    with open(path, "rb") as fh:
        assert fh.read() == stored
    out = cache_lookup_or_compute(cache, "k", producer)
    assert out == (None, '{"value": 1}\n') and len(calls) == 2


def test_cache_readonly_dir_warns_and_computes(tmp_path, capsys):
    cache = tmp_path / "ro"
    cache.mkdir()
    os.chmod(cache, stat.S_IRUSR | stat.S_IXUSR)
    try:
        out = cache_lookup_or_compute(str(cache), "k", lambda: {"v": 2})
        assert out == ({"v": 2}, '{"v": 2}\n')
        err = capsys.readouterr().err
        assert "cache not writable" in err or os.geteuid() == 0
    finally:
        os.chmod(cache, stat.S_IRWXU)


def test_cache_failed_rename_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    out = cache_lookup_or_compute(str(tmp_path), "k", lambda: {"v": 3})
    assert out == ({"v": 3}, '{"v": 3}\n')
    assert capsys.readouterr().err == "cache not writable (rename refused); skipping store\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_cache_entry_mode_follows_the_umask(tmp_path, umask):
    # a shared cache directory serves every user the umask lets read, as a
    # file written by a plain open would
    old = os.umask(umask)
    try:
        cache_lookup_or_compute(str(tmp_path), "k", lambda: {"v": 4})
    finally:
        os.umask(old)
    (entry,) = os.listdir(tmp_path)
    assert entry.endswith(".entry")
    assert stat.S_IMODE(os.stat(tmp_path / entry).st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_warm_hit_prints_the_cold_bytes(tmp_path, capsys, fmt):
    # a JSON hit writes the stored document; CSV and text hits parse it and
    # render as a run that computes does
    argv = ("--format", fmt, "eg", "--nu", "2", "--g", "2")
    uncached = run(capsys, "--no-cache", *argv)
    cold = run(capsys, "--cache-dir", str(tmp_path), *argv)
    warm = run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert uncached == cold == warm and cold[0] == 0 and cold[2] == ""


def test_failed_document_exits_1_on_every_cached_run(monkeypatch, tmp_path, capsys):
    # a document that reports a failed check is printed, never stored, and
    # so recomputed and failed again
    import mapgenus.continuum_even as continuum_even

    calls = []
    monkeypatch.setattr(continuum_even, "payload_z0", lambda **options: calls.append(1) or {"status": "fail"})
    for _ in range(2):
        assert run(capsys, "--cache-dir", str(tmp_path), "z0", "--nu", "2") == (1, '{"status": "fail"}\n', "")
    assert len(calls) == 2 and os.listdir(tmp_path) == []


def mapgenus(*argv, head=("-m", "mapgenus")):
    """Run ``python -m mapgenus`` (or the given interpreter arguments) with
    argv in a fresh interpreter, with no cache directory from the
    environment and buffered streams, so that output reaches the pipe only
    if the process flushes it."""
    env = {k: v for k, v in os.environ.items() if k not in (CACHE_ENV, "PYTHONUNBUFFERED")}
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, env=env, stdin=subprocess.DEVNULL)


def test_cli_maps_entrypoint_identity(tmp_path):
    # second invocation through a cache directory serves identical bytes
    cache = tmp_path / "cache"
    argv = ["--cache-dir", str(cache), "maps", "--valence", "4", "--vertices", "2"]
    first = mapgenus(*argv)
    assert first.returncode == 0 and first.stderr == b""
    assert json.loads(first.stdout) == {"0": 36, "1": 60}
    # the store finished before the process ended: one complete entry,
    # whose document is the bytes the run printed
    (entry,) = os.listdir(cache)
    assert entry.endswith(".entry")
    key, digest, document = (cache / entry).read_bytes().split(b"\n", 2)
    assert key.startswith(b"maps genus=None valence=4 vertices=2 | engine ")
    assert document == first.stdout and digest == hashlib.blake2b(document, digest_size=16).hexdigest().encode()
    stored = os.stat(cache / entry)
    second = mapgenus(*argv)
    assert second.returncode == 0 and second.stderr == b""
    assert second.stdout == first.stdout
    # a hit leaves the entry untouched; a miss would replace the file
    hit = os.stat(cache / entry)
    assert os.listdir(cache) == [entry]
    assert (hit.st_ino, hit.st_mtime_ns) == (stored.st_ino, stored.st_mtime_ns)


# argv (with FILE standing for a regular file) and the exit code
PROCESS_CASES = {
    "document": (["maps", "--valence", "4", "--vertices", "2"], 0),
    "parser error": (["maps", "--valence", "4"], 2),
    "engine usage error": (["zg", "--nu", "0", "--g", "2"], 2),
    "short order": (["zg", "--nu", "2", "--g", "2", "--order", "6"], 0),
    "cache not writable": (["--cache-dir", "FILE", "maps", "--valence", "4", "--vertices", "2"], 0),
}


@pytest.mark.parametrize("case", sorted(PROCESS_CASES))
def test_process_exit_and_streams_match_dispatch(tmp_path, monkeypatch, capsys, case):
    argv, code = PROCESS_CASES[case]
    regular = tmp_path / "file"
    regular.write_text("")
    argv = [str(regular) if arg == "FILE" else arg for arg in argv]
    monkeypatch.delenv(CACHE_ENV, raising=False)
    expected = run(capsys, *argv)
    assert expected[0] == code
    if case == "cache not writable":  # a cache path that is a file holds no entry: a miss, not a corrupt one
        assert "cache not writable" in expected[2] and "corrupt" not in expected[2]
    proc = mapgenus(*argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


# Patches the eg payload builder to raise ResonanceFailure, then runs
# ``cli.main`` on argv: no command line reaches exit code 3 except through
# an engine fault, so one is injected.
RESONANCE_FAULT = """
import sys
from mapgenus import cli, errors, genus_even

def faulty(**options):
    raise errors.ResonanceFailure("injected at m=2")

genus_even.payload_eg = faulty
sys.exit(cli.main())
"""


def test_engine_fault_exits_3_in_a_process(monkeypatch, capsys):
    import mapgenus.genus_even as genus_even

    argv = ["--no-cache", "eg", "--nu", "2", "--g", "2"]

    def faulty(**options):
        raise errors.ResonanceFailure("injected at m=2")

    monkeypatch.setattr(genus_even, "payload_eg", faulty)
    expected = run(capsys, *argv)
    assert expected == (3, "", "reconstruction/resonance failure: injected at m=2\n")
    proc = mapgenus(*argv, head=("-S", "-c", RESONANCE_FAULT))
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


# Registers an atexit callback that marks stderr, installs the hook that
# argv[1] names (trace, profile or none), then runs ``python -m mapgenus``
# on the rest of argv.  Under -i the prompt reads end of file and exits.
FALLBACK = """
import atexit, runpy, sys
atexit.register(sys.stderr.write, "atexit ran\\n")
hook = sys.argv.pop(1)
if hook == "trace":
    sys.settrace(lambda *event: None)
elif hook == "profile":
    sys.setprofile(lambda *event: None)
runpy.run_module("mapgenus", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "flags, hook",
    [((), "trace"), ((), "profile"), (("-i",), "none"), ((), "none")],
    ids=["trace", "profile", "prompt", "fast exit"],
)
def test_fast_exit_only_without_a_hook_or_prompt(flags, hook):
    proc = mapgenus("maps", "--valence", "4", "--vertices", "2", head=(*flags, "-c", FALLBACK, hook))
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"0": 36, "1": 60}
    # the fast exit skips the atexit callbacks of other code: the
    # documented trade; a hooked or prompting run exits normally and runs them
    fast_exit = (flags, hook) == ((), "none")
    assert (b"atexit ran" in proc.stderr) is not fast_exit


def test_cprofile_still_prints_its_statistics():
    proc = mapgenus("maps", "--valence", "4", "--vertices", "2", head=("-m", "cProfile", "-m", "mapgenus"))
    assert proc.returncode == 0
    document, statistics = proc.stdout.decode().split("\n", 1)
    assert json.loads(document) == {"0": 36, "1": 60}
    assert "function calls" in statistics


def test_console_script_runs_main():
    # a plain line match: tomllib is Python 3.11+, the package supports 3.10
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        lines = [line.strip() for line in fh]
    assert lines[lines.index("[project.scripts]") + 1] == 'mapgenus = "mapgenus.cli:main"'


# Loads the cli in a fresh interpreter, dispatches the argv given after the
# expected exit code (if any), checks that it returns that code, and prints
# the modules that import and dispatch loaded, one a line.  The script
# itself imports no json, so a run that loads it shows.  The interpreter
# starts without ``site``, whose .pth hooks may import modules of their
# own before the script runs.
FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from mapgenus import cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(sys.argv[2:])
    assert code == int(sys.argv[1]), code
print("\\n".join(sorted(set(sys.modules) - before)))
"""

CLI_ONLY = {"mapgenus", "mapgenus.cli"}


def loaded_by(*argv, code=0) -> set:
    """The modules that importing the cli, then dispatching argv (if any)
    with the exit code given, load in a fresh interpreter."""
    args = [sys.executable, "-S", "-c", FOOTPRINT] + ([str(code), *argv] if argv else [])
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def engine(modules: set) -> set:
    return {m for m in modules if m.startswith("mapgenus")}


def test_import_cli_loads_no_engine_module():
    loaded = loaded_by()
    assert engine(loaded) == CLI_ONLY
    assert "tempfile" not in loaded


def test_warm_cache_hit_loads_no_engine_module(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "eg", "--nu", "2", "--g", "2"]
    assert dispatch(argv) == 0
    capsys.readouterr()
    assert engine(loaded_by(*argv)) == CLI_ONLY


def test_each_command_loads_only_what_it_runs():
    maps = engine(loaded_by("--no-cache", "maps", "--valence", "4", "--vertices", "2"))
    assert "mapgenus.fatgraph_oracle" in maps and "mapgenus.exact_kernel" not in maps
    zg = engine(loaded_by("--no-cache", "zg", "--nu", "2", "--g", "1"))
    assert "mapgenus.continuum_even" in zg
    assert not zg & {
        "mapgenus.genus_even",
        "mapgenus.lattice_oracle",
        "mapgenus.continuum_odd",
        "mapgenus.fatgraph_oracle",
    }
    lattice = engine(loaded_by("verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2"))
    assert "mapgenus.lattice_oracle" in lattice
    assert not lattice & {"mapgenus.continuum_even", "mapgenus.genus_even"}


def test_lattice_and_odd_checks_load_no_other_oracle():
    """The lattice tables and checks share no code with the continuum
    kernel, and ``verify odd`` runs no matching oracle."""
    lattice = engine(loaded_by("verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2"))
    assert "mapgenus.lattice_oracle" in lattice and "mapgenus.exact_kernel" not in lattice
    odd = engine(loaded_by("verify", "odd", "--nu", "2", "--order", "4"))
    assert "mapgenus.continuum_odd" in odd
    assert not odd & {"mapgenus.fatgraph_oracle", "mapgenus.lattice_oracle"}


def test_engine_commands_load_no_dataclasses():
    """The records are named tuples: no engine job pays for ``dataclasses``
    and the ``inspect`` it imports."""
    for argv in (
        ("--no-cache", "eg", "--nu", "2", "--g", "2"),
        ("--no-cache", "zg", "--nu", "2", "--g", "1"),
        ("verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2"),
        ("verify", "odd", "--nu", "2", "--order", "4"),
        ("report",),
    ):
        assert not loaded_by(*argv) & {"dataclasses", "inspect"}, argv


def test_only_the_cache_loads_hashlib():
    assert "hashlib" not in loaded_by()
    assert "hashlib" not in loaded_by("--no-cache", "maps", "--valence", "4", "--vertices", "2")


def test_cached_runs_load_no_openssl(tmp_path):
    """The cache digests with the builtin BLAKE2b: neither a store nor a
    hit loads ``hashlib`` and the OpenSSL it maps."""
    argv = ("--cache-dir", str(tmp_path), "eg", "--nu", "2", "--g", "2")
    for _ in ("store", "hit"):
        assert not loaded_by(*argv) & {"hashlib", "_hashlib"}
    assert len(os.listdir(tmp_path)) == 1


COMMANDS = ("z0", "zg", "eg", "maps", "verify", "trivalent", "report")


def test_help_and_usage_errors_list_every_command(capsys):
    """One table holds every command, whatever argv names: the help page
    and a top-level usage error after a named command list all seven."""
    import mapgenus.cli as cli_mod

    with pytest.raises(SystemExit) as exc:
        cli_mod.parse_options(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for command in COMMANDS:
        assert "\n    %s " % command in usage, command
    for argv in (["--format", "xml", "zg", "--nu", "2", "--g", "3"], ["zg", "--nu", "2", "--g", "3", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            cli_mod.parse_options(argv)
        assert exc.value.code == 2
        assert "{%s} ...\nmapgenus: error: " % ",".join(COMMANDS) in capsys.readouterr().err, argv


# Help pages, usage errors and parses of the command line as the argparse
# parser it replaced printed and built them (COLUMNS unset, no tty), except
# that every usage error lists all seven commands
with open(os.path.join(ROOT, "tests", "cli_golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN["text"], ids=[" ".join(c["argv"]) or "-" for c in GOLDEN["text"]])
def test_help_and_usage_text_is_golden(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "case", GOLDEN["parse"], ids=[" ".join(c["argv"]) + (" [env]" if c["env"] else "") for c in GOLDEN["parse"]]
)
def test_parse_table(monkeypatch, capsys, case):
    # every option present with its default, the builder by the name that
    # imports it, and the cache key dispatch builds from the dict unchanged
    import mapgenus.cli as cli_mod

    if case["env"]:
        monkeypatch.setenv(cli_mod.CACHE_ENV, case["env"])
    else:
        monkeypatch.delenv(cli_mod.CACHE_ENV, raising=False)
    expected = dict(case["options"])
    options = cli_mod.parse_options(case["argv"])
    name = options.pop("run")
    assert name == expected.pop("run") and cli_mod.builder(name).__name__ == name
    assert options == expected
    keys = []
    monkeypatch.setattr(
        cli_mod,
        "cache_lookup_or_compute",
        lambda cache_dir, key, producer, no_cache=False: (keys.append(key) or {}, None),
    )
    assert run(capsys, *case["argv"]) == (0, "{}\n" if expected["format"] == "json" else "", "")
    assert keys == [case["key"]]


# what a run may load beyond the interpreter's start: the cache's BLAKE2b,
# the two CLI modules and the help and usage text (only for a help page or
# a usage error)
STARTUP_ALLOWED = CLI_ONLY | {"mapgenus.usage", "_blake2"}


def test_startup_loads_only_the_allowed_modules(tmp_path, capsys):
    """Importing the cli, a warm JSON cache hit, a help page and a usage
    error load no argparse, gettext, locale or shutil, and neither json
    nor the engine's error types: a hit prints the stored bytes."""
    hit = ["--cache-dir", str(tmp_path), "zg", "--nu", "2", "--g", "1"]
    assert dispatch(hit) == 0
    capsys.readouterr()
    for argv, code in (((), 0), (hit, 0), (("--help",), 0), (("zg", "--nu", "x"), 2)):
        loaded = loaded_by(*argv, code=code)
        assert not loaded & {"json", "mapgenus.errors"}, argv
        assert loaded <= STARTUP_ALLOWED, (argv, sorted(loaded - STARTUP_ALLOWED))
    # a CSV hit parses the stored document to render it
    assert "json" in loaded_by("--format", "csv", *hit)


CACHE = object()  # stands for the test's cache directory in an argv
# the engine's error types load with every payload builder, and only there
CONTINUUM = {"mapgenus.combinatorics", "mapgenus.continuum_even", "mapgenus.errors", "mapgenus.exact_kernel"}
ODD = {"mapgenus.combinatorics", "mapgenus.continuum_odd", "mapgenus.errors", "mapgenus.exact_kernel"}
# the argv of each run, its exit code, and the mapgenus modules it loads
# beyond CLI_ONLY: each builder sits beside its engine, the conservation
# laws load for no command, and the help text only for help and errors
FOOTPRINTS = {
    "import cli": ((), 0, set()),
    "z0": (("--no-cache", "z0", "--nu", "2", "--order", "6"), 0, CONTINUUM),
    "zg": (("--no-cache", "zg", "--nu", "2", "--g", "1"), 0, CONTINUUM),
    "eg": (
        ("--no-cache", "eg", "--nu", "2", "--g", "2"),
        0,
        CONTINUUM | {"mapgenus.genus_even", "mapgenus.fatgraph_oracle"},
    ),
    "maps": (
        ("--no-cache", "maps", "--valence", "4", "--vertices", "2"),
        0,
        {"mapgenus.errors", "mapgenus.fatgraph_oracle"},
    ),
    "verify lattice": (
        ("verify", "lattice", "--nu", "2", "--nmax", "4", "--torder", "2"),
        0,
        {"mapgenus.errors", "mapgenus.lattice_oracle"},
    ),
    "verify continuum": (("verify", "continuum", "--nu", "2", "--g", "1"), 0, CONTINUUM | {"mapgenus.checks"}),
    "verify odd": (("verify", "odd", "--nu", "2", "--order", "4"), 0, ODD),
    "trivalent": (("trivalent",), 0, ODD | {"mapgenus.fatgraph_oracle"}),
    "report": (
        ("report",),
        0,
        CONTINUUM | ODD | {"mapgenus.checks", "mapgenus.fatgraph_oracle", "mapgenus.lattice_oracle"},
    ),
    "warm hit": (("--cache-dir", CACHE, "zg", "--nu", "2", "--g", "1"), 0, set()),
    "--help": (("--help",), 0, {"mapgenus.usage"}),
    "usage error": (("zg", "--nu", "x"), 2, {"mapgenus.usage"}),
}


@pytest.mark.parametrize("case", FOOTPRINTS)
def test_each_run_loads_exactly_its_modules(tmp_path, capsys, case):
    argv, code, extra = FOOTPRINTS[case]
    argv = [str(tmp_path) if arg is CACHE else arg for arg in argv]
    if CACHE in FOOTPRINTS[case][0]:
        # the cold run stores the entry that the measured run hits
        assert dispatch(argv) == 0
        capsys.readouterr()
    assert engine(loaded_by(*argv, code=code)) == CLI_ONLY | extra


def test_trivalent_past_the_matching_cap_fails_before_the_golden_forms(monkeypatch, capsys):
    # 8 trivalent vertices (24 half-edges) exceed the cap: the option is
    # rejected before any golden form is expanded
    from mapgenus import continuum_odd

    def expanded(T):
        raise AssertionError("golden forms expanded to order %d" % T)

    monkeypatch.setattr(continuum_odd, "trivalent_closed_forms", expanded)
    assert run(capsys, "trivalent", "--mmax", "400") == (
        2,
        "",
        "usage error: --mmax must be <= 6: the map counts stop at 20 half-edges\n",
    )


def test_records_are_immutable():
    from mapgenus.continuum_odd import solve_leading_odd
    from mapgenus.exact_kernel import Q
    from mapgenus.genus_even import build_etable
    from mapgenus.lattice_oracle import WeightSpec, recurrence_table

    etable = build_etable(2, 2)
    records = [
        (etable.ztable.entries[1], "ratfn"),
        (etable.entries[2], "r_factor"),
        (recurrence_table(WeightSpec(nu=2, g_s=Q(1)), n_max=4, T=2), "b2"),
        (solve_leading_odd(2, 4), "residuals"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)

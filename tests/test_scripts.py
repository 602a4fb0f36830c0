"""Smoke tests of the scripts under scripts/, each run as its own process."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, timeout=120):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_golden_idempotent_script():
    proc = run_script("golden_idempotent.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1:] for line in lines[:4]] == [["==", "first"]] * 4
    element = json.loads("\n".join(lines[4:]))
    assert (element["r"], element["s"]) == (2, 2)
    coeffs = {tuple(term["diagram"]): term["coeff"] for term in element["terms"]}
    assert coeffs[(3, 4, 1, 2)] == "1/(2*d^2-2*d)"


def test_certify_script():
    for args in (["3"], ["3", "--full"]):
        proc = run_script("certify.py", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(": ok ") == 3  # (1,1), (1,2), (2,1)


def test_digests_script():
    proc = run_script("digests.py", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # one tableau on each of the two 1-site shapes, 2 on each of the three
    # 2-site shapes and 4 on each of the four 3-site shapes
    assert len(rows) == 4 * (2 + 3 * 2 + 4 * 4)
    by_tableau: dict = {}
    for r, s, tableau, procedure, digest in rows:
        assert len(digest) == 64 and int(digest, 16) >= 0
        by_tableau.setdefault((r, s, tableau), {})[procedure] = digest
    assert len(by_tableau) == 24
    for digests in by_tableau.values():
        # the four procedures build the same idempotent
        assert sorted(digests) == ["first", "interp", "second_fwd", "second_mirror"]
        assert len(set(digests.values())) == 1


# sha256 of the lines `digests.py 5` prints for each shape (r, s), each line
# with its newline: every idempotent of up to five sites by every procedure,
# as the Q(d) kernel built them when these digests were recorded
GOLDEN_DIGESTS = {
    (0, 1): "92ec780b53dbeb9a7f14dfe57f1a6cba146792834bced8eca611c6e905c9c59f",
    (1, 0): "084b6574444f38de34f7cfe5b400e61d7542c34d9e8d919d1e54671bb9c0e507",
    (0, 2): "cc33716b47bfbedc8d2b041fc91c9d1efccf76e09faf6804b18b46c9a93f59e2",
    (1, 1): "31bca0d702f576292a32ce08326f8d3287fe61df3a5097f0b5b977c9faeb5f80",
    (2, 0): "795187bd37b205a3fd7f9f8b69a143496966b214a2b212a6d6fafe16d2e43802",
    (0, 3): "bc04f10fe6451c538764766fd1545148ad6ee09221d92635e311f7813094e4eb",
    (1, 2): "f860ec44cb88dd4b10849bbed9e6fdfd7d54b53db96db47b0e3d9be9180a20fc",
    (2, 1): "86be66608ac94b7e001a618d1c7b399796a554dad05672714964e3964e7f674a",
    (3, 0): "e10dfe411fa749199d5096e08af4db00dda418b5ab90e999d8c4fbce4c2c39d5",
    (0, 4): "33d520af90e2e16a0069732ce703a6f32ae0c8af91fbc0c432dd196dec94e911",
    (1, 3): "87c4eca261a447c7d905ecc90f77c9c1196fa69f183593db4f66768b5808fde0",
    (2, 2): "e3b9ce3815ba6d55b7399a9bfba049821bddaf3574607c082848ec3a65d3bc70",
    (3, 1): "26976f2b123dd1bcc59b8c5c9687710d590210c44106fa012484e6887066fd6b",
    (4, 0): "8535ca9ec35675e6f214f3a671264cdf843a6bb0157f49b0600eedd17fb2152f",
    (0, 5): "c7a94541bb465c9365e46eacaeb4fef57a0a6a69fd8cabe227a0c29d93751b36",
    (1, 4): "3c8b541cd4d5d06d0b5ba753b2df8822766fbd8ca56ab35eb2bf6fd8a32e7987",
    (2, 3): "c101c6e69f269365c8e5f68c8eea3ef8ebec617e2c42e1daa43bc0685b67490c",
    (3, 2): "afe0338229ed1fff76082d50a774f8fda461a74c8c674b4c86f011b953f7166e",
    (4, 1): "048260ef0207acd98bad9aa0a8049f58df38f4a3acba7229e157c260bed760f8",
    (5, 0): "db314f6e1dc5b22f5755790b14a315c0fc230820366916da476d17201d7287a0",
}


# the same for the shapes of six sites, from `digests.py 6`
SIX_SITE_DIGESTS = {
    (0, 6): "1ee548457397d873e706e47e10b3a78683016c88716c425855f21da2831383ca",
    (1, 5): "f6da9658d49bc9145cbad6c8e65b87f3f79184860579f01aff471832ccba270f",
    (2, 4): "ebd51fc64907996d4d1a89de8bd6d52479cbba138fb649bf38029cbecbea0920",
    (3, 3): "70267d28dfba16b55fb745246ea0df74eac44ed0ebf19beb3b7262b067f866d9",
    (4, 2): "c6ca84471c80b85527a929aa330c671549b7e2d17a3027049ecd6cae1cba7339",
    (5, 1): "1d8e810077b5a618a5b3016489fff5685d489b0328809940d10bc827f19e335c",
    (6, 0): "13d07b91dbb60d78ac429ad0f83bb3ba339bc5c7f317e91bc0383c5c27a141bf",
}


def _digests_by_shape(max_sites, timeout=120):
    proc = run_script("digests.py", str(max_sites), timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    by_shape: dict = {}
    for line in proc.stdout.splitlines(keepends=True):
        r, s = map(int, line.split()[:2])
        by_shape.setdefault((r, s), hashlib.sha256()).update(line.encode())
    return {shape: h.hexdigest() for shape, h in by_shape.items()}


def test_digests_match_the_recorded_elements():
    assert _digests_by_shape(5) == GOLDEN_DIGESTS


@pytest.mark.slow
def test_six_site_digests_match_the_recorded_elements():
    # 3 048 lines; about 30 s on a 2-core machine
    assert _digests_by_shape(6, timeout=600) == {**GOLDEN_DIGESTS, **SIX_SITE_DIGESTS}

"""Golden outputs: the stdout bytes and the work of fixed CLI invocations.

``GOLDEN`` has one row per invocation of ``qdonald <argv>``: (argv, sha256
of its stdout, (memo builds, distinct memo keys), (calls of
``exact._pairs``, ``exact._kronecker``, ``exact.int_power``), bytes that
the Kronecker products pack, multiply-adds of the pair loops), counted by
:mod:`counters` in one run with every memo empty.  A change to a digest
changes the exact output and needs a reason; a change that lowers a count
lowers its pin, and one that raises it says why.  The packed bytes and the
multiply-adds see the work that a call count does not: a slot one byte
wider, or a pair loop that runs past its window, changes no value and no
call.

:func:`run_row` runs a row once and returns all its pins and its memo
traffic; under pytest each row runs so once, and a test per pin reads that
run, as does the test that holds every memo entry to its traffic.  The module
imports no pytest, so it also runs as a script, under interpreters without
pytest: ``PYTHONPATH=src python3 tests/test_golden.py`` checks every pin
of every row run fresh, then every digest again with the memos the earlier
runs left.  It prints each mismatch with its row and pin and exits 1 on
any.  A test runs the script
under ``PYTHONHASHSEED`` 0 and 1: both seeds give the same bytes and counts.

``POOL`` is ``qdbench/golden.json``: each job of the benchmark's pools with
the byte count and sha256 of its stdout.  Under pytest each job runs once
in process, with every memo empty, against both.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

from counters import (KERNEL_ENTRIES, UNMEMOIZED, clear_memos,
                      counting_kernel_calls, counting_memo_builds,
                      counting_packed_bytes, counting_pair_products, memoized)
from qdonald.cli import COMMANDS, main

POOL = json.loads((Path(__file__).resolve().parents[1] / "qdbench"
                   / "golden.json").read_text())

GOLDEN = [
    (["series", "--name", "Qplus", "--order", "20", "--format", "json"],
     "b9ced97d599b92b98fa3cc3053d2d1b2a2678a781c398d56eb0a63e5ce5444b3",
     (7, 7), (5, 5, 3), 819, 397),
    (["series", "--name", "QtransS", "--order", "6", "--format", "json"],
     "7d80e74817d4ee56651f22a5b37f74a472752e60d729206ede3cbc562b4f44a0",
     (5, 5), (13, 2, 5), 100, 737),
    (["series", "--name", "M", "--order", "300", "--format", "json"],
     "6284639481a834295b56a767ffa7d8941b9bc24a8ade70b9b447b6e77ef66da8",
     (2, 2), (1, 1, 1), 222, 130),
    (["series", "--name", "Delta", "--order", "60", "--format", "json"],
     "e01e581e17a6573bf9ac1f57a25849a2014bb6db2c02a911fd8b609a31e40005",
     (1, 1), (1, 4, 0), 1239, 125),
    (["series", "--name", "ebracket:2,1", "--order", "10", "--format", "json"],
     "60f5ccf9156259c02b91d75b9fa100886c2a0e0a082597eb2c920ad6e713f824",
     (8, 8), (9, 2, 3), 84, 477),
    (["invariants", "--nf", "0", "--max-weight", "4", "--format", "json"],
     "448d71deecbf91b6b2a05ead5fa7e857da4c7dc1bb9c431de0ecddb78faf1cc1",
     (14, 14), (63, 0, 8), 0, 317),
    (["invariants", "--nf", "2", "--max-weight", "3", "--format", "csv"],
     "315269cfb6cf31e64c07674c692385488cac511f60c99df1bd1ad0fad108b495",
     (13, 13), (56, 0, 7), 0, 296),
    (["invariants", "--nf", "3", "--max-weight", "2"],
     "0c3c603bdedae2601bfe3a0f4ad233c93cd7124edffc8035e31c0b2c26d922f8",
     (10, 10), (52, 1, 9), 34, 759),
    (["goettsche", "--max-weight", "4"],
     "ae70799c5f4d542ea9fa463ca108ecdd92ea1a9391655c836b99a6fa4e114fc9",
     (10, 10), (35, 0, 3), 0, 119),
    (["nf4", "--order", "4"],
     "eb6251206d48cbf579bce3b2cda14ec6a591f645dfb4c464ef127ec005be2e94",
     (9, 9), (15, 0, 5), 0, 324),
    # every coefficient of the nf = 4 partition function below q^200
    (["nf4", "--order", "200", "--terms", "1000"],
     "6b543357490391ec52c3243e73616281d5f26f0ac245172d9fe1f00bad645b68",
     (9, 9), (3, 12, 5), 98024, 2822),
    (["hurwitz", "--max", "24", "--format", "json"],
     "c4490878b3d281778d17020b116b6f164f4bdf1b06f9f6823b500738f82f5bd4",
     (0, 0), (0, 0, 0), 0, 0),
    (["verify", "--suite", "criterion", "--max", "2"],
     "9503402b97cb4c7f3ee76ddfb773e5bda2214f6248786473c9d0dc3fa0e23d6f",
     (18, 18), (63, 0, 9), 0, 175),
    (["goettsche", "--max-weight", "4", "--format", "json"],
     "4f032af8c960e3fc5ec7928c650b6df9633fd276ce7c99111cd479156feefb9d",
     (10, 10), (35, 0, 3), 0, 119),
    (["goettsche", "--max-weight", "4", "--format", "csv"],
     "b2d340c150a3930acfb1cd444006ff9f9c1cc271437fde050701362e6dcef208",
     (10, 10), (35, 0, 3), 0, 119),
    (["swcheck", "--nf", "2", "--order", "16"],
     "0b70856415ce499549c6cc43b563b9cd03769e5ba33b024e0c850e04ef944288",
     (6, 6), (24, 14, 2), 2526, 1302),
    # each suite asks for its own windows, and no order of the suites
    # builds each key once
    (["verify", "--suite", "all", "--order", "24"],
     "1be6ac599e7c1fb406225c93bb94978f784b8431cf987fbce946403acf27d8f3",
     (70, 61), (458, 66, 45), 20666, 6689),
    (["hurwitz", "--max", "12"],
     "16f134b3b446c8591b5ed0878bbd09990e03a06372df5507857d6b16e0833c89",
     (0, 0), (0, 0, 0), 0, 0),
    (["series", "--name", "Qplus", "--order", "20"],
     "542cd0b9aeacdcfe430e869dbe601dc607542ff9ac43bf7f126a70f4a33b03ba",
     (7, 7), (5, 5, 3), 819, 397),
    # larger tables, whose cells reach the widest pairing windows
    (["invariants", "--nf", "0", "--max-weight", "10", "--format", "json"],
     "9fce96b20273a50e325128eeaedd238019ad6e6a402653ff1af6094804b6a0c4",
     (20, 20), (200, 0, 14), 0, 2278),
    (["invariants", "--nf", "2", "--max-weight", "8", "--format", "json"],
     "68d1340d7e95d99d8081da5c2b94f77f36ef4b5c25e265d1ccb100c6a08c2377",
     (18, 18), (164, 0, 12), 0, 1895),
    (["invariants", "--nf", "3", "--max-weight", "6", "--format", "json"],
     "b236f24475c1fa8742d155ba33aa43719298f71a623aee2cffb2ebcba04305c3",
     (14, 14), (126, 4, 13), 358, 2776),
    (["goettsche", "--max-weight", "12", "--format", "json"],
     "2fcada252980b97dd255faa22d0ebf289b8d130fd8174c3e2872bb79d8e64335",
     (22, 22), (144, 0, 7), 0, 1673),
    (["verify", "--suite", "criterion", "--max", "6"],
     "dd38f11c82b0fa8c8894326d59b336a6f7f245da3774f7b8dce028ed53f9e0b0",
     (30, 30), (196, 0, 17), 0, 1097),
    # large orders, where long products and inverses of sparse divisors run
    (["series", "--name", "Delta", "--order", "1000", "--format", "json"],
     "4b9e4b376c186bd59d1e0b9cadfd7bed0a51d588e2a01d6c6ed6f90d3641cf1b",
     (1, 1), (1, 4, 0), 29970, 2087),
    (["series", "--name", "Z0", "--order", "600", "--format", "json"],
     "652f58f5381d073281b3deee7832c96ef3c202426b6a33ad18114a5541eb9d41",
     (2, 2), (0, 1, 1), 2416, 0),
    # the S-transform of Q+, whose M part is a bilateral sum over Theta4,
    # to q^480 and q^800, and read to the weight-12 slot
    (["series", "--name", "QtransS", "--order", "60", "--format", "json"],
     "2f336607babb6d131dcd04fab60f65e47bd71f0346d64c031f068663be82934b",
     (5, 5), (4, 11, 5), 21430, 1296),
    (["series", "--name", "QtransS", "--order", "100", "--format", "json"],
     "447f20231ca868e705dafd7ad3aa55f48e274637a6a6e313095af0fd8ac17a4a",
     (5, 5), (3, 12, 5), 44084, 1471),
    (["invariants", "--nf", "3", "--max-weight", "12", "--format", "json"],
     "951e92d9ed5686d0064b4696ea44e5ca29b813d1fa3ce3dad3f08c98f80115b3",
     (20, 20), (239, 71, 19), 14089, 7426),
    # tables by weight passes: every H-combination of nf = 3 to weight 18,
    # and the Goettsche values to weight 24
    (["invariants", "--nf", "3", "--max-weight", "18", "--format", "json"],
     "1bae5efac587356072649f44f0272d4ffb240b8f4d641a4d8fc444b7a9a639d2",
     (26, 26), (313, 254, 25), 74934, 10723),
    (["goettsche", "--max-weight", "24", "--format", "json"],
     "032ab6d1230766b922c65f456f62b3a44012290a7b56315e5d109c270e7af09a",
     (40, 40), (407, 28, 13), 6266, 11878),
    # the widest u-plane rows of nf = 0 and nf = 2
    (["invariants", "--nf", "0", "--max-weight", "24", "--format", "json"],
     "71ec2f40490467a6e357d96bf22c866e9664a8ec1586605ae4a73f045b55ddc6",
     (34, 34), (733, 83, 28), 18888, 22280),
    (["invariants", "--nf", "2", "--max-weight", "16", "--format", "json"],
     "bf25cecc44c973b2b65fdc7e90bc2a71e5eb16a23631ef8d5012f39f2b1e95ea",
     (26, 26), (446, 1, 20), 38, 11999),
    # the n/d writer on long rational series, and the text of the
    # S-transform as read from the integer form
    (["series", "--name", "M", "--order", "900", "--format", "json"],
     "592672814364f940792b027386a870e06c4ba1526ece6dc9dc2ec2bd61915c93",
     (2, 2), (1, 1, 1), 1120, 659),
    (["series", "--name", "ebracket:2,1", "--order", "80", "--format", "json"],
     "86e9337e42801494ba11b296020ad28332914713f57e6e02bfc45a300ab9e108",
     (8, 8), (4, 7, 3), 10307, 1549),
    (["series", "--name", "QtransS", "--order", "25"],
     "74ec91ba0d936f1d9da0cd85880e4bf434d12dcad1cfda59fd16262c1ca30d75",
     (5, 5), (5, 10, 5), 5650, 758),
    # class numbers far past the N_f = 4 tables, and the identity suite,
    # whose FasMu lines read the weighted Appell-Lerch kernels
    (["hurwitz", "--max", "2000", "--format", "json"],
     "a92380f6d81fc5eb26c807d86d7103116ac6baf8b40261bac67807f570061596",
     (0, 0), (0, 0, 0), 0, 0),
    (["verify", "--suite", "identities", "--order", "120"],
     "50f5e440c2cc6e44ba9ab6d09f02785546f6eb3b76679f809aa1e1e5c701b503",
     (27, 27), (106, 24, 17), 11467, 6032),
    # orders where the inverses of dense theta divisors and the longest
    # Kronecker products run: a changed inverse or product algorithm must
    # leave these bytes alone.  The identity suite prints labels and
    # outcomes only, so its hash equals the order-120 one.
    (["swcheck", "--nf", "3", "--order", "400"],
     "dc7ed95ada4822352fe40293a054820568d156d96afdbf8bbbb6327047b950fb",
     (6, 6), (16, 24, 2), 339854, 5354),
    # the nf=0 and nf=2 charts at the order where their eta quotients are
    # longest; swcheck prints outcomes only, so nf=2 hashes as at order 16
    (["swcheck", "--nf", "0", "--order", "400"],
     "2cf6b0ba62d896d384b0c056c5479cd68cd6a600c9f59cb71c22bd9d4e1420a5",
     (6, 6), (10, 19, 2), 450115, 3379),
    (["swcheck", "--nf", "2", "--order", "400"],
     "0b70856415ce499549c6cc43b563b9cd03769e5ba33b024e0c850e04ef944288",
     (6, 6), (14, 24, 2), 224647, 4085),
    (["verify", "--suite", "identities", "--order", "2000"],
     "50f5e440c2cc6e44ba9ab6d09f02785546f6eb3b76679f809aa1e1e5c701b503",
     (27, 27), (86, 44, 17), 713398, 24538),
    (["series", "--name", "Qplus", "--order", "3000", "--format", "json"],
     "2c08c33500b020dfa7615225ed8dd1dc19e5eb63e9e3c314b26cf6d8da21d8f3",
     (7, 7), (2, 8, 3), 1395277, 18862),
    (["series", "--name", "Delta", "--order", "20000", "--format", "json"],
     "af3ff5f273fa70ea65fefec900c113ed67159b52695fe8847850fd7d436b4ad5",
     (1, 1), (1, 4, 0), 819959, 41895),
    # the f_m kernels, as the forms-dense pool reads f_5, and one of high m
    (["series", "--name", "fm:5", "--order", "250", "--format", "json"],
     "1ff346498879b7fce419c172f1867161e40432626cad593427d777743adc9519",
     (2, 2), (1, 11, 1), 10098, 137),
    (["series", "--name", "fm:50", "--order", "100", "--format", "json"],
     "19b34fafe994c24a71a8c32d7c29dfe5a73efb8d0e3f23d1481d6f25368900f7",
     (2, 2), (1, 17, 1), 26469, 104),
    # orders off the integer grid, and the empty window at order 0: each
    # stored window ends where the grid its series is read on puts it
    (["series", "--name", "eta", "--order", "0", "--format", "json"],
     "c18d111bad5e18022a5d6ef41db8bd467af2bdfe624e3d3544879e7433492b40",
     (1, 1), (0, 0, 0), 0, 0),
    (["series", "--name", "A", "--order", "17/3", "--format", "json"],
     "e37d19d765e94737be4980a7f400a875901a876fecec24741c91318d363b85bb",
     (1, 1), (4, 0, 1), 0, 11),
    (["series", "--name", "Qplus", "--order", "5/2", "--format", "json"],
     "50e74947911532fdd972435b9503f6d814f1d4db56ca288b41df4891b0017eac",
     (7, 7), (10, 0, 3), 0, 92),
    (["series", "--name", "B", "--order", "121/2", "--format", "json"],
     "004585aa06a63d47e6444895030a4ac0d5639a1c4e8d5bf8af9c2e2b90c1f31b",
     (1, 1), (4, 0, 1), 0, 96),
    (["series", "--name", "fm:2", "--order", "13/4", "--format", "json"],
     "afd2404c297836c696077f5d5a8df8893f3c82b57df5b9ccffe0e535b9a4c0d6",
     (2, 2), (8, 0, 1), 0, 46),
    (["series", "--name", "vtheta2", "--order", "7/8", "--format", "json"],
     "1c978ed11d673446034263dc0fd4501d52629b6a73957952fb115d27076fd838",
     (0, 0), (0, 0, 0), 0, 0),
    # the theta constants' empty window on the grid of its bound, as eta's
    (["series", "--name", "vtheta2", "--order", "0", "--format", "json"],
     "c18d111bad5e18022a5d6ef41db8bd467af2bdfe624e3d3544879e7433492b40",
     (0, 0), (0, 0, 0), 0, 0),
    (["series", "--name", "vtheta3", "--order", "0", "--format", "json"],
     "c18d111bad5e18022a5d6ef41db8bd467af2bdfe624e3d3544879e7433492b40",
     (0, 0), (0, 0, 0), 0, 0),
    (["series", "--name", "vtheta4", "--order", "0", "--format", "json"],
     "c18d111bad5e18022a5d6ef41db8bd467af2bdfe624e3d3544879e7433492b40",
     (0, 0), (0, 0, 0), 0, 0),
    # coefficients longer than str's limit on int digits (4300 by default):
    # -3^10000, of 4772 digits, and four longer ones, printed in full
    (["series", "--name", "Ft:10000", "--order", "3"],
     "d7705c6feb8d13e6a81265c36ae35a686318bf239710ae2ee5fc8f62f0700e36",
     (1, 1), (0, 0, 0), 0, 0),
    (["series", "--name", "Ft:10000", "--order", "3", "--format", "json"],
     "1e24e90153f374e93a41f17af7c6a6513dd4fec91b68aa1c4168cf936051d101",
     (1, 1), (0, 0, 0), 0, 0),
]


def pytest_generate_tests(metafunc):
    if "row" in metafunc.fixturenames:
        metafunc.parametrize("row", GOLDEN,
                             ids=[" ".join(argv) for argv, *_ in GOLDEN])
    if "job" in metafunc.fixturenames:
        metafunc.parametrize("job", sorted(POOL))


def _stdout(argv) -> tuple:
    """(exit code, stdout bytes) of ``qdonald <argv>``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def _run(argv) -> tuple:
    """(exit code, sha256 of stdout) of ``qdonald <argv>``."""
    code, out = _stdout(argv)
    return code, hashlib.sha256(out).hexdigest()


def run_row(argv) -> tuple:
    """Run ``qdonald <argv>`` once with every memo empty: (exit code,
    sha256, (builds, keys), (pairs, kronecker, powers), packed bytes, pair
    multiply-adds), as a row pins, and the memo traffic (builds, requests)
    that :func:`counters.counting_memo_builds` counts."""
    with counting_memo_builds() as traffic, \
            counting_kernel_calls() as calls, \
            counting_packed_bytes() as packed, \
            counting_pair_products() as products:
        code, digest = _run(argv)
    builds = traffic[0]
    return (code, digest, (sum(builds.values()), len(builds)),
            tuple(calls[name] for _, name in KERNEL_ENTRIES), sum(packed),
            sum(products), traffic)


@lru_cache(maxsize=None)
def _ran(argv: tuple) -> tuple:
    """:func:`run_row` of *argv*, once in this process for all its tests."""
    return run_row(list(argv))


def test_golden_stdout(row):
    assert _ran(tuple(row[0]))[:2] == (0, row[1])


def test_golden_memo_builds(row):
    assert _ran(tuple(row[0]))[2] == row[2]


def test_golden_kernel_calls(row):
    assert _ran(tuple(row[0]))[3] == row[3]


def test_golden_packed_bytes(row):
    assert _ran(tuple(row[0]))[4] == row[4]


def test_golden_pair_products(row):
    assert _ran(tuple(row[0]))[5] == row[5]


def test_pool_job_prints_its_golden_bytes(job):
    """A job of the benchmark's pools, run with every memo empty, exits 0
    and prints as many bytes as ``POOL`` pins, with its sha256."""
    clear_memos()
    code, out = _stdout(job.split())
    assert (code, len(out), hashlib.sha256(out).hexdigest()) == \
        (0, int(POOL[job]["bytes"]), POOL[job]["sha256"])


def test_memo_entries_serve_requests():
    """Over the one run of every row, each memoized constructor serves a
    request from its entry in some row, and no ``UNMEMOIZED`` constructor
    is asked twice with one key in one row: a constructor holds an entry
    only where a command asks for its series again."""
    plain = {name for _, name in UNMEMOIZED}
    served, repeated = Counter(), []
    for argv, *_ in GOLDEN:
        builds, requests = _ran(tuple(argv))[6]
        for (name, key), count in requests.items():
            served[name] += count - builds[name, key]
            if name in plain and count > 1:
                repeated.append((" ".join(argv), name, key, count))
    idle = [name for _, name, _ in memoized() if not served[name]]
    assert not idle and not repeated, (idle, repeated)


# the values a run returns that are checked: the exit code, 0, then what a
# row pins; the memo traffic after them is read by its own test
_PINS = ("exit code", "sha256", "memo builds", "kernel calls",
         "packed bytes", "pair products")


def report(rows, fresh, warm) -> int:
    """Print a line naming the row and the pin for each pin of a row that
    its fresh run, or each of the exit code and sha256 that its warm run,
    does not match, then how many rows match; 1 if any row does not."""
    lines, bad = [], 0
    for (argv, *pins), got, again in zip(rows, fresh, warm):
        row = [f"MISMATCH {' '.join(argv)}: {pin}{memos} {g}, pinned {w}"
               for run, memos in ((got, ""), (again, " with warm memos"))
               for pin, g, w in zip(_PINS, run, (0, *pins)) if g != w]
        lines, bad = lines + row, bad + bool(row)
    print(*lines, f"{len(rows) - bad} of {len(rows)} golden rows match every"
          " pin", sep="\n")
    return 1 if bad else 0


def run_golden() -> int:
    """Run every row once with every memo empty and check all its pins,
    then every row again, in order, with the memos the runs before it left,
    and check its exit code and sha256; 1 on any mismatch."""
    fresh = [run_row(argv) for argv, *_ in GOLDEN]
    warm = [_run(argv) for argv, *_ in GOLDEN]
    return report(GOLDEN, fresh, warm)


def test_report_names_each_wrong_pin(capsys):
    """Five copies of one row, each with one pin wrong, against runs that
    return what the row pins: the script's check names that row and that
    pin, and no other, and returns 1."""
    argv, digest, memo, kernel, packed, products = GOLDEN[0]
    wrong = [(argv, "0" * 64, memo, kernel, packed, products),
             (argv, digest, (memo[0] + 1, memo[1]), kernel, packed, products),
             (argv, digest, memo, (*kernel[:2], kernel[2] + 1), packed,
              products),
             (argv, digest, memo, kernel, packed + 1, products),
             (argv, digest, memo, kernel, packed, products + 1)]
    fresh = [(0, digest, memo, kernel, packed, products)] * 5
    assert report(wrong, fresh, [(0, digest)] * 5) == 1
    row = f"MISMATCH {' '.join(argv)}:"
    assert capsys.readouterr().out.splitlines() == [
        f"{row} sha256 {digest}, pinned {'0' * 64}",
        f"{row} sha256 with warm memos {digest}, pinned {'0' * 64}",
        f"{row} memo builds {memo}, pinned {wrong[1][2]}",
        f"{row} kernel calls {kernel}, pinned {wrong[2][3]}",
        f"{row} packed bytes {packed}, pinned {packed + 1}",
        f"{row} pair products {products}, pinned {products + 1}",
        "0 of 5 golden rows match every pin"]


def test_kernel_calls_ignore_the_hash_seed():
    """The script, in two fresh processes under PYTHONHASHSEED 0 and 1,
    checks every pin of every row: the bytes, memo builds, kernel calls,
    packed bytes and pair multiply-adds are alike under both seeds."""
    script = os.path.abspath(__file__)
    src = os.path.join(os.path.dirname(script), "..", "src")
    children = [subprocess.Popen(
        [sys.executable, script], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        for seed in ("0", "1")]
    for child in children:
        out, _ = child.communicate()
        assert child.returncode == 0, out


def _format_choices():
    """{command: (--format choices, default)}; no --format is (None,)."""
    formats = {}
    for name, (_, _, options) in COMMANDS.items():
        option = next((o for o in options if o[0] == "--format"), None)
        formats[name] = ((None,), None) if option is None else option[1:]
    return formats


def test_golden_covers_every_format():
    """Every command, with every --format choice it has, has a golden
    invocation, so no output layout can change unpinned."""
    covered = set()
    formats = _format_choices()
    assert set(formats) == {"series", "invariants", "goettsche", "verify",
                            "hurwitz", "nf4", "swcheck"}
    for argv, *_ in GOLDEN:
        _, default = formats[argv[0]]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv \
            else default
        covered.add((argv[0], fmt))
    wanted = {(name, fmt) for name, (choices, _) in formats.items()
              for fmt in choices}
    assert wanted <= covered, sorted(wanted - covered)


if __name__ == "__main__":
    sys.exit(run_golden())

"""The written reports and exports: pinned bytes for I2(7), I2(8), rank 3
and F4, and of the lattice export for the other rank-4 groups; and the
pinned stdout of `ncph info`."""

import hashlib

import pytest

from ncph.cli import main
from ncph.coxeter import CoxeterDiagram

# sha256 of the files written by `ncph verify <TYPE> <RANK> --all --no-cache`
# and `ncph export <TARGET> <TYPE> <RANK> --no-cache`, each with and without
# --swap-classes; any change of these bytes is a change of an exact output
PINNED = {
    ("I", "7", False): {
        "verify": "9a190a2d0df26a1abb8439319cf3259f43de2a0b631343f86635ab930384321d",
        "ncp": "b194d19218fafd171b2e02709f8e3a94d9735e538a6002476cbedca3ae7db593",
        "xc": "9cf6e3bffcd1ddd038dd34deb34aa355c4703e7ac95a15a9e7ff2582cedcc7c4",
        "lattice": "23d6f957bdec2ac0678f23ec4ab77230b161202fce9a403a3bf861784a855ba0",
        "embed": "80cc3e664b75f7903f68c9705d8693498d1fa2aee8814549c016ab1d4f992a7e",
    },
    ("I", "7", True): {
        "verify": "d0a860cad4a08e18f2bc829eb39cf8e69e38bf2145fba03a30b5aeb053e3def1",
        "ncp": "b194d19218fafd171b2e02709f8e3a94d9735e538a6002476cbedca3ae7db593",
        "xc": "9cf6e3bffcd1ddd038dd34deb34aa355c4703e7ac95a15a9e7ff2582cedcc7c4",
        "lattice": "23d6f957bdec2ac0678f23ec4ab77230b161202fce9a403a3bf861784a855ba0",
        "embed": "80cc3e664b75f7903f68c9705d8693498d1fa2aee8814549c016ab1d4f992a7e",
    },
    ("I", "8", False): {
        "verify": "337ef14f3bf1e0db9d19384a5a5dca1b94bd09a8dc44ed6c86c10cd0251b2325",
        "ncp": "3cbed6d00139d4b5a1aed0ff21d44b7c330ed59178f1a4ee0e54e08f09e43da9",
        "xc": "3cb0ed2b8663175550ad1e0f8ddcfbaa1dfcef75c51605b38b349dc938199270",
        "lattice": "b44cf010635ddb17e870120ff4bcec9cd63a2b4304fb47ad9dd8e30f1fac97fa",
        "embed": "c43f1d6b04bee072cd17943c6a6544ac02a78838701dc5b2fd4219abaf7cd0fe",
    },
    ("I", "8", True): {
        "verify": "f837fe074bfc87454d024fff16dd8fd13e897626ac6b9a12e2916582a52a3b00",
        "ncp": "3cbed6d00139d4b5a1aed0ff21d44b7c330ed59178f1a4ee0e54e08f09e43da9",
        "xc": "3cb0ed2b8663175550ad1e0f8ddcfbaa1dfcef75c51605b38b349dc938199270",
        "lattice": "b44cf010635ddb17e870120ff4bcec9cd63a2b4304fb47ad9dd8e30f1fac97fa",
        "embed": "c43f1d6b04bee072cd17943c6a6544ac02a78838701dc5b2fd4219abaf7cd0fe",
    },
    ("A", "3", False): {
        "verify": "5bd5ff53d5123fa029b2aea59fab353ef431d739a97408c58f07042a75943cae",
        "ncp": "de10a15d9dedbe316fa5c131e0fa8f8b0b679e87c523fc6c960c33808f668d6a",
        "xc": "076d0f4eb9cc4fdc48f90f34e2d315036930558036df36232d23ce49a5185b98",
        "lattice": "3c2acd7450100d4a40014ce5a7843acf6632d8cd12caa7c94edb80d59bf91eb7",
        "embed": "d7bbb170d5edb1a9eb469c1e01a73a8ba1308946cbfe4db47617be46854a45bd",
    },
    ("A", "3", True): {
        "verify": "7dbc61c7e4a08b5990319012701d2ba373cd01b604d981ba1cf0aa27bcdaa40b",
        "ncp": "c1717ce0ba7e707ca7dd00c5c53c1ae2cb90b6f5e32497340b46c04f4ba12a9f",
        "xc": "003e43abccf4796617c2818f213dcdeac0ca3532ea3fb991bdedecb9c80ad410",
        "lattice": "ab96b54b3cc1abd23a355cd8b556e5bfa793e174906bb88421951e7146d4e5d3",
        "embed": "0f30547bfa6d6ae7c408d42340d0b511d4f18234501379592b138434c2976f4d",
    },
    ("B", "3", False): {
        "verify": "80c753cfd059d954417de40e6cb3163eb88a18fb7f8e576ebdfde11fb4d39d2a",
        "ncp": "839db2c1391f6e729fa62cf1700ceba3e78df345da636af2073a0460d90af4ca",
        "xc": "f3b45498d33f25c52caf236c56b86aa6bd3c790faed45e4e0ef970f645a2a8da",
        "lattice": "187a49c786fec2cc4a74d348b52222e107856ae53b6cf1a247d0a3804e83e5a4",
        "embed": "f2953ab403964aa48553729cee6b3d83136536373cb1e3d3cdf36ef3dc73b6d5",
    },
    ("B", "3", True): {
        "verify": "34f4e0e523ed2a6596e39dd2661d533116551ab0b5665a8e72a0eb937f1b76b5",
        "ncp": "d16f7cdcc65e666098aaf899fd102a76c3f917f3989b683f0c48b49a6b614dbd",
        "xc": "85ec5119ccf443b81dc9ae89cdabe9126ccfa9ba15a298793469fdcbbef93477",
        "lattice": "139954a30c642f5ac8a94c178806dea3db4daf938baf50c3f6829989aa60576b",
        "embed": "a80bb54099e94bbe40b38218a83611bade5ec23bede2652dde203febf7c348ea",
    },
    ("H", "3", False): {
        "verify": "02bb4cfa88d3894512b76e58a962db45bd708e737ebbdca8cc83c30edb55c2d1",
        "ncp": "714c23a047677668e6567bb11ff5eadf1ffedf5db6a08952df05591ca6670ef6",
        "xc": "5690995e4338720e276b671d786c09848f05efd9008bb8194be371371f6494fd",
        "lattice": "d3adc8e1d8933f60b5df351e6e354de0f3d96008a1ff84a62798fb55187d2acb",
        "embed": "3cfd8ff4afb65456ce02ce42c99a75f123cdd6d51f9d36e4202d9ed604ea3b17",
    },
    ("H", "3", True): {
        "verify": "e232de52faee6fcaa522976a1e398ef7d1197cc7b5417621a4eb49ce239fa428",
        "ncp": "3bd6701b8a79121b1eac49cf8f73de378af2326a9093bdf017558ba8e2cb8496",
        "xc": "d23cbffe850df75135adf9b5e7c22a5f1aafee01d9b23f06714414d2f337af08",
        "lattice": "20685a680acdde45fd3e775bc7318fa1d75b9281636155ba02ca04cd054f539f",
        "embed": "b9c28f32f4aafd2c19725033153809930130d65e77dfd060ca2625bf3d020e31",
    },
    ("F", "4", False): {
        "verify": "82d412138e8a88d0fc45305a2340546d417ca95d12549d8cd58be2e91f813923",
        "ncp": "d63763961c12c1866308404d3c89f333d63b9540b11774aea1d4d7f8ddd8d87e",
        "xc": "eaa58f0c029981c95e34fc54f072912b666f863d2d444cad35bcea576f536c04",
        "lattice": "e2d30edddb32b3ebb39fdb0cab1c2b2749078418c7104398a8d7d0e7f71cd274",
        "embed": "65e44687245bcbd65bdf884ca2a7aa411fb5a40ec78bbfb3aa4b5345dda7c270",
    },
    ("F", "4", True): {
        "verify": "276141698ac36360b7c31775bc1b18bd89a609cc47285024ddaba34365e1e542",
        "ncp": "9f7fbb3c4835b53b1db960efdc70518642d65b87dd163d9103a65e05eb92b6eb",
        "xc": "1b38e45011738dc6a01abef796bd7756109ccfee14ff0fbe93d4c8229792fe14",
        "lattice": "719bf748b0fd1270b62d1f0bc1cfdf1a0fb1a3a43771bffbbcbbaf3bb73676c4",
        "embed": "2e9a371e3b254cf12579a80cb02907745cbf579e093ad9e6e83f5ede93cc4b1c",
    },
}


@pytest.mark.parametrize("label,rank,swap", list(PINNED))
def test_report_and_export_bytes_are_pinned(label, rank, swap, tmp_path):
    common = [label, rank, "--out", str(tmp_path), "--no-cache"]
    common += ["--swap-classes"] if swap else []
    assert main(["verify", *common, "--all"]) == 0
    for target in ("ncp", "xc", "lattice", "embed"):
        assert main(["export", target, *common]) == 0
    stem = CoxeterDiagram.from_type(label, int(rank)).label
    found = {name: hashlib.sha256(
        (tmp_path / f"{stem}-{name}.json").read_bytes()).hexdigest()
        for name in PINNED[label, rank, swap]}
    assert found == PINNED[label, rank, swap]


# sha256 of the file written by `ncph export lattice <TYPE> <RANK> --no-cache`,
# with and without --swap-classes
LATTICE_PINNED = {
    ("A", "4", False): "c1ac6d6ec557dae3c4d18b17e25fcf432775ec554d11e33dd7ed1751bdc9e0d0",
    ("A", "4", True): "54e202f309a2e34cced520fcc11067053475b7c6efa6abfc1d2cb0a2a74d8bd2",
    ("D", "4", False): "9da4e0ed3234298864adaf1a597469cf957a917c5e479fcbcd342e67e0e096d8",
    ("D", "4", True): "1479387f7c1e14ec9e8df3867d5899f209eab28a125e24391556f5fe1c25c5cd",
    ("B", "4", False): "23626086a966562007c4473450ed31e32d2a1ae8f9d1b0927b6a3b7836e2eddd",
    ("B", "4", True): "bbaed0f2e8d36f529cfbfa2db8833508ab1c8173846d835db7bf1b40c5de14d8",
    ("H", "4", False): "9b7082deebe269d74f29bcb759164c918916f0e8071c583b01a8760ff121de13",
    ("H", "4", True): "a3689a06756b18cab31e703dd4ac481d853162b6771f9e327ea8e9247cfc8fe0",
}


@pytest.mark.parametrize("label,rank,swap", list(LATTICE_PINNED))
def test_lattice_export_bytes_are_pinned(label, rank, swap, tmp_path):
    args = ["export", "lattice", label, rank, "--out", str(tmp_path),
            "--no-cache"] + (["--swap-classes"] if swap else [])
    assert main(args) == 0
    stem = CoxeterDiagram.from_type(label, int(rank)).label
    data = (tmp_path / f"{stem}-lattice.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == LATTICE_PINNED[label, rank, swap]


# sha256 of the stdout of `ncph info <TYPE> <RANK> --no-cache`: the root
# order as floats (theta correctly rounded, in degree 2, 3 and 4) and as
# exact coordinates
INFO_PINNED = {
    ("H", "3"): "18c679505d30acf4afe02929731d5c01b814790c824746cc614fd401d6fb351d",
    ("I", "7"): "4bf747f18da3f43366049d0a11e54d2ac662be84ab945ecb5985ece3f2c9f391",
    ("I", "8"): "352e1cbac86136f00792ae1c57a135b9747d54bc038aea68001bcbe07c41078f",
}


@pytest.mark.parametrize("label,rank", list(INFO_PINNED))
def test_info_stdout_is_pinned(label, rank, tmp_path, capsys):
    assert main(["info", label, rank, "--out", str(tmp_path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INFO_PINNED[label, rank]

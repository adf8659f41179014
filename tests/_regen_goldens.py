"""The golden CLI cases, and a script that regenerates their files under tests/golden/.

tests/test_cli.py checks every case against its file. Run manually from
the repository root after an intentional output-format change (the
package is imported from src/, not an installed copy):

    PYTHONPATH=src python tests/_regen_goldens.py
"""

from pathlib import Path

from apollonius.cli import run

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "classify_35_25_5.json": ["classify", "-a", "35", "-b", "25", "-c", "5"],
    "classify_4_2_1.json": ["classify", "-a", "4", "-b", "2", "-c", "1"],
    "sample_4_2_1_n16.csv": ["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "16"],
    "euclid_locus_9_4_1.json": ["euclid-locus", "-a", "9", "-b", "4", "-c", "1"],
    "euclid_locus_5_3_1.json": ["euclid-locus", "-a", "5", "-b", "3", "-c", "1"],
    "fourpoint_euclid_4_2_1_0.json": [
        "fourpoint", "--geometry", "euclid", "-a", "4", "-b", "2", "-c", "1", "-d", "0", "--witness",
    ],
    "fourpoint_hyper_10_6_5_1.json": [
        "fourpoint", "--geometry", "hyper", "-a", "10", "-b", "6", "-c", "5", "-d", "1", "--witness",
    ],
    "fourpoint_hyper_8_4_2_1.json": [
        "fourpoint", "--geometry", "hyper", "-a", "8", "-b", "4", "-c", "2", "-d", "1", "--witness",
    ],
    "fourpoint_hyper_1e300_3_2_1.json": [
        "fourpoint", "--geometry", "hyper", "-a", "1e300", "-b", "3", "-c", "2", "-d", "1", "--witness",
    ],
    "fourpoint_hyper_1e300_3em300_2em300_1em300.json": [
        "fourpoint", "--geometry", "hyper", "-a", "1e300", "-b", "3e-300", "-c", "2e-300", "-d", "1e-300", "--witness",
    ],
    "prob_pe_n10000_seed7.json": ["prob", "pe", "-n", "10000", "--seed", "7"],
    "prob_ph_n10000_seed7_ratio2.json": [
        "prob", "ph", "-n", "10000", "--seed", "7", "--ratio", "2",
    ],
    "prob_ph_calibrate_reference.json": [
        "prob", "ph", "--calibrate", "0.4201514931601543", "-n", "1",
    ],
    "dioph_quadratic.csv": ["dioph", "--family", "quadratic", "--m-range", "0:3", "--n-range", "1:2"],
    "dioph_geometric.csv": ["dioph", "--family", "geometric", "--m-range", "1:4", "--n-range", "1:3"],
    "dioph_harmonic.csv": ["dioph", "--family", "harmonic", "--m-range=-1:1", "--n-range", "0:1"],
}

SVG_CASES = {
    "sample_4_2_1_n64.svg": ["sample", "-a", "4", "-b", "2", "-c", "1", "-n", "64"],
    "sample_35_25_5_n64.svg": ["sample", "-a", "35", "-b", "25", "-c", "5", "-n", "64"],
    "sample_35_7_5_n64.svg": ["sample", "-a", "35", "-b", "7", "-c", "5", "-n", "64"],
}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        rc = run(argv + ["-o", str(GOLDEN / name)])
        assert rc == 0, (name, rc)
        print("wrote", name)
    for name, argv in SVG_CASES.items():
        csv_sink = GOLDEN / "_scratch.csv"
        rc = run(argv + ["--svg", str(GOLDEN / name), "-o", str(csv_sink)])
        assert rc == 0, (name, rc)
        csv_sink.unlink()
        print("wrote", name)


if __name__ == "__main__":
    main()

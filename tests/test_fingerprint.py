import re

import fingerprint


def test_fingerprint_prints_every_digest(capsys):
    # The bit gate's script runs here as documented. Its digests are not
    # pinned, because Gaussian draws are bit-stable only per platform.
    fingerprint.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * (len(fingerprint.SPECS) + 1) == 30
    assert all(re.fullmatch(r"\S+ +[0-9a-f]{64}(  \(.+\))?", line) for line in lines)
    assert [line.split()[0] for line in lines].count("overall") == 3
    clipped = [int(n) for n in re.findall(r"\(gated windows clipped: (\d+)\)", "\n".join(lines))]
    assert len(clipped) == len(fingerprint.SPECS) and min(clipped) > 0

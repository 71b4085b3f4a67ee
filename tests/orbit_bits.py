"""The numeric orbit's pinned bits, readable without pytest.

`tests/test_verify.py` checks these rows under pytest.  The module also
runs on its own, so any interpreter can check them, one with no pytest
installed included:

    python3 tests/orbit_bits.py

It imports lagrforge from the checkout's `src/`, prints one line per row
and exits 1 if any row's bits differ.
"""

import math
import os
import sys


SCALE = """
group scale {
  params: g;
  coords: X1, X2;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: (X1*(1 + g), X2*(1 + g));
}
"""


SCALE3 = """
group scale3d {
  params: g;
  coords: X1, X2, X3;
  identity: (0);
  inverse: (-g/(1 + g));
  multiply: (lhs.g + rhs.g + lhs.g*rhs.g);
  action: ((1 + g)*X1, (1 + g)*X2 + g, (1 + g)^2*X3);
}
"""


def bits(orbit):
    return (orbit.max_deviation.hex(), orbit.steps,
            [v.hex() for v in orbit.final_state],
            [v.hex() for v in orbit.final_exact])


# (source, x0, g_end, step) -> the orbit's bits, as the straight compile of
# every tree node gave them before its code hoisted loop invariants (the
# last row was recorded later, from code with the same bits); the same on
# CPython 3.10 to 3.13.  The compiled references of test_verify.py share
# `_numeric_lines` with the orbit, so only fixed values guard its codegen.
ORBIT_BITS = [
    ("so2", (1.0, 0.0), 2 * math.pi, 1e-3,
     ("0x1.1205c2f77209fp-41", 6284,
      ["0x1.0000000000018p+0", "-0x1.ea4db00000000p-45"],
      ["0x1.0000000000000p+0", "0x1.e6b9676733ae9p-42"])),
    ("so2", (0.3, -1.7), -2.5, 7e-3,
     ("0x1.7b9222ccc881cp-34", 358,
      ["-0x1.41fb9fc7be465p+0", "0x1.2eb1ee31acc92p+0"],
      ["-0x1.41fb9fc77daeep+0", "0x1.2eb1ee31f24d6p+0"])),
    (SCALE, (1.0, -2.0), 1.5, 1e-2,
     ("0x1.ad5336963eefcp-46", 150,
      ["0x1.3ffffffffffeap+1", "-0x1.3ffffffffffeap+2"],
      ["0x1.4000000000002p+1", "-0x1.4000000000002p+2"])),
    (SCALE, (1.0, -2.0), -0.5, 1e-2,
     ("0x1.1e3779b97f4a8p-51", 50,
      ["0x1.ffffffffffff8p-2", "-0x1.ffffffffffff8p-1"],
      ["0x1.ffffffffffffcp-2", "-0x1.ffffffffffffcp-1"])),
    (SCALE3, (1.0, 0.5, -0.25), 1.5, 1e-3,
     ("0x1.82f7d049170b8p-43", 1500,
      ["0x1.3fffffffffe8cp+1", "0x1.600000000006cp+1",
       "-0x1.8fffffffffe75p+0"],
      ["0x1.3ffffffffff86p+1", "0x1.5ffffffffff48p+1",
       "-0x1.8fffffffffecep+0"])),
    # a last step of 0.3 steps: stages 2 and 3 run at a g + h / 2 whose h
    # changes for that step
    (SCALE3, (1.0, 0.5, -0.25), 1.5003, 1e-3,
     ("0x1.82e92cf868c2ap-43", 1501,
      ["0x1.4009d49518135p+1", "0x1.600ebedfa446ap+1",
       "-0x1.901893d55f54dp+0"],
      ["0x1.4009d4951822fp+1", "0x1.600ebedfa4346p+1",
       "-0x1.901893d55f5a5p+0"])),
]

ORBIT_IDS = ["so2-full-turn", "so2-backwards", "scale", "scale-backwards",
             "scale3", "scale3-short-last-step"]


def orbit_bits(source, x0, g_end, step):
    """The bits of the orbit that `numeric_orbit_check` integrates."""
    import lagrforge as lf
    source = lf.bundled_source(source) if source == "so2" else source
    lie = lf.constraints(lf.parse(source))
    return bits(lf.numeric_orbit_check(lie, x0, g_end, step=step))


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, "src"))
    failed = 0
    for name, (source, x0, g_end, step, want) in zip(ORBIT_IDS, ORBIT_BITS):
        same = orbit_bits(source, x0, g_end, step) == want
        failed += not same
        print(f"{name}: {'same' if same else 'DIFFERENT'}")
    print(f"{sys.version.split()[0]}: {len(ORBIT_BITS) - failed} of "
          f"{len(ORBIT_BITS)} rows give the pinned bits")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Frozen expected values shared by the unit and acceptance suites.

Sources: hand-checked worked examples for these invariants, plus this
package's independent oracles (brute-force enumeration and blowup
simulation), as noted per fixture.
"""


# e-tables with their SG columns, {h: (row, SG_h)}
ETABLE_RRVTVV = {
    2: ([0], 3),
    3: ([0, 0], 4),
    4: ([0, 0, 1], 4),
    5: ([0, 0, 0, 3], 5),
    6: ([0, 0, 0, 2, 5], 5),
    7: ([0, 0, 0, 1, 4, 12], 5),
    8: ([0, 0, 0, 0, 3, 11], 6),
    9: ([0, 0, 0, 0, 2, 10], 6),
    10: ([0, 0, 0, 0, 1, 9], 6),
    11: ([0, 0, 0, 0, 0, 8], 7),
    12: ([0, 0, 0, 0, 0, 7], 7),
    13: ([0, 0, 0, 0, 0, 6], 7),
    14: ([0, 0, 0, 0, 0, 5], 7),
    15: ([0, 0, 0, 0, 0, 4], 7),
    16: ([0, 0, 0, 0, 0, 3], 7),
    17: ([0, 0, 0, 0, 0, 2], 7),
    18: ([0, 0, 0, 0, 0, 1], 7),
    19: ([0, 0, 0, 0, 0, 0], 8),
}

ETABLE_RRRVV = {
    2: ([0], 3),
    3: ([0, 0], 4),
    4: ([0, 0, 1], 4),
    5: ([0, 0, 0, 3], 5),
    6: ([0, 0, 0, 2, 5], 5),
    7: ([0, 0, 0, 1, 4], 5),
    8: ([0, 0, 0, 0, 3], 6),
    9: ([0, 0, 0, 0, 2], 6),
    10: ([0, 0, 0, 0, 1], 6),
    11: ([0, 0, 0, 0, 0], 7),
}

# SG column of the RRVTVV table, h = 2..19
# A GeneratorSet step budget for growth to exhaustion: every Goursat word
# with k <= 7 exhausts within 35 steps, so its exponents stay far below
# the packed rows' guard bits.
EXHAUSTION_BUDGET = 64

SG_RRVTVV = (3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 8)

# back-end derived-vector recursion, every prefix of the long word
DER_BACKEND_LIST = {
    "RR": (1, 1),
    "RRV": (1, 1, 2),
    "RRVT": (1, 1, 1, 3),
    "RRVTR": (1, 1, 1, 1, 3),
    "RRVTRR": (1, 1, 1, 1, 1, 3),
    "RRVTRRR": (1, 1, 1, 1, 1, 1, 3),
    "RRVTRRRV": (1, 1, 2, 2, 2, 2, 2, 6),
    "RRVTRRRVT": (1, 1, 1, 3, 3, 3, 3, 3, 9),
    "RRVTRRRVTT": (1, 1, 1, 1, 4, 4, 4, 4, 4, 12),
    "RRVTRRRVTTT": (1, 1, 1, 1, 1, 5, 5, 5, 5, 5, 15),
    "RRVTRRRVTTTV": (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9, 27),
}

# front-end derived-vector recursion, the words its lifting chain visits
DER_FRONTEND_LIST = {
    "RR": (1, 1),
    "RRV": (1, 1, 2),
    "RRRRRV": (1, 1, 2, 2, 2, 2),
    "RRVTTTV": (1, 1, 2, 2, 2, 2, 9),
    "RRRRRRVTTTV": (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9),
    "RRVTRRRVTTTV": (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9, 27),
}

# complete bracket table of the chart ooioii; row = left slot, column = f_j
BRACKETS_OOIOII = {
    "v0": ["0", "0", "0", "0", "0", "0", "0"],
    "v1": ["0", "v0", "v0", "n3*v0", "n3*v0", "n3*n5*v0", "n3*n5*n6*v0"],
    "v2": ["0", "0", "v1", "n3*v1", "n3*v1", "n3*n5*v1", "n3*n5*n6*v1"],
    "v3": ["0", "0", "0", "f2", "f2", "n5*f2", "n5*n6*f2"],
    "v4": ["0", "0", "0", "0", "v3", "n5*v3", "n5*n6*v3"],
    "v5": ["0", "0", "0", "0", "0", "f4", "n6*f4"],
    "v6": ["0", "0", "0", "0", "0", "0", "f5"],
    "f0": ["0", "0", "0", "0", "0", "0", "0"],
    "f1": ["0", "0", "-n2*v0", "-n2*n3*v0", "-n2*n3*v0",
           "-n2*n3*n5*v0", "-n2*n3*n5*n6*v0"],
    "f2": ["0", "n2*v0", "0", "-v1", "-v1", "-n5*v1", "-n5*n6*v1"],
    "f3": ["0", "n2*n3*v0", "v1", "0", "-n4*f2", "-n4*n5*f2", "-n4*n5*n6*f2"],
    "f4": ["0", "n2*n3*v0", "v1", "n4*f2", "0", "-v3", "-n6*v3"],
    "f5": ["0", "n2*n3*n5*v0", "n5*v1", "n4*n5*f2", "v3", "0", "-f4"],
    "f6": ["0", "n2*n3*n5*n6*v0", "n5*n6*v1", "n4*n5*n6*f2", "n6*v3", "f4", "0"],
}

# g-basis of the chart ooioii: (sign, kind, index) for g_2..g_7 and the
# divisor removed at each bracketing step
GBASIS_OOIOII_IDENTS = [
    (-1, "f", 5), (-1, "f", 4), (-1, "v", 3), (1, "f", 2), (1, "v", 1), (-1, "v", 0),
]
GBASIS_OOIOII_DIVISORS = ["1", "1", "n6", "n5*n6", "n5*n6", "n3*n5*n6"]

# (o(coordinate), o(differential)) per alternative coordinate name
ORDERS_RRVRVV = {
    "y^(3)": (1, 1), "x^(3)": (1, 1), "x''": (0, 2), "y''": (3, 3),
    "x'": (3, 3), "x": (6, 6), "y'": (9, 9), "y": (15, 15),
}
ORDERS_RRVTVV = {
    "y^(3)": (1, 1), "x^(3)": (1, 1), "x''": (2, 2), "y''": (3, 3),
    "x'": (5, 5), "x": (8, 8), "y'": (11, 11), "y": (19, 19),
}

VO_RRVRVV = (0, 3, 0, 1, 1)
VO_RVVVRVT = (6, 3, 3, 0, 2, 0)

# the 17-row calculation pathway to f_{19,7} at the RRVTVV point
PATHWAY_RRVTVV_I7 = [
    (3, "g3", 0),
    (4, "n6*g4", 1),
    (5, "n5*n6^2*g5", 3),
    (6, "n5^2*n6^3*g6", 5),
    (7, "n3*n5^3*n6^4*g7", 12),
    (8, "4*n3*n5^3*n6^3*g7", 11),
    (9, "12*n3*n5^3*n6^2*g7", 10),
    (10, "24*n3*n5^3*n6*g7", 9),
    (11, "24*n3*n5^3*g7", 8),
    (12, "24*n4*n5^4*n6*g7", 7),
    (13, "24*n4*n5^4*g7", 6),
    (14, "24*n5^4*n6*g7", 5),
    (15, "24*n5^4*g7", 4),
    (16, "96*n5^3*g7", 3),
    (17, "288*n5^2*g7", 2),
    (18, "576*n5*g7", 1),
    (19, "576*g7", 0),
]

# multiplicity sequences frozen from the blowup simulation oracle
MULTSEQ_CASES = {
    (2, (9,)): (2, 2, 2, 2, 1),
    (6, (8, 9)): (6, 2, 2, 2, 1),
    (8, (19,)): (8, 8, 3, 3, 2, 1),
    (4, (6, 7)): (4, 2, 2, 1),
    (4, (6, 9)): (4, 2, 2, 2, 1),
}

"""Independent oracle for the test suite.

Everything here but the per-point reference at the end (which is built
on the package's per-trial functions) was computed before the package
was implemented and is kept deliberately independent of it: its own
transcription of the reference table, its own derivations, and
least-squares via explicit normal equations over math.fsum
accumulations. The FROZEN_* constants were produced by running exactly
this code; tests assert both that the package matches the frozen values
and that this module still reproduces them (guarding the constants
against transcription drift).
"""
from __future__ import annotations

import math
from math import fsum, log2

# (person, shot, trial, db_cm, t_s, v_printed, dp_cm, id_printed, mt_s, ir_printed)
TABLE_RAW = [
    (1, "Drive", 1, "586", "0.197", "29.75", "374", "6.8", "1.22", "5.57"),
    (1, "Drive", 2, "587", "0.204", "28.77", "386", "6.8", "1.21", "5.62"),
    (1, "Drive", 3, "580", "0.198", "29.29", "454", "7.01", "1.23", "5.7"),
    (1, "Drop", 1, "615", "0.395", "15.57", "355", "5.79", "1.06", "5.46"),
    (1, "Drop", 2, "614", "0.3775", "16.26", "352", "5.84", "1.09", "5.36"),
    (1, "Drop", 3, "605", "0.395", "15.32", "364", "5.8", "1.04", "5.58"),
    (1, "Lob", 1, "686", "0.3125", "21.95", "380", "6.38", "1.89", "3.38"),
    (1, "Lob", 2, "665", "0.3625", "18.34", "402", "6.2", "1.63", "3.8"),
    (1, "Lob", 3, "670", "0.3275", "20.46", "361", "6.21", "1.78", "3.49"),
    (1, "Boast", 1, "971", "0.792", "12.26", "491", "5.91", "1.013", "5.83"),
    (1, "Boast", 2, "980", "0.732", "13.39", "360", "5.59", "1.208", "4.63"),
    (1, "Boast", 3, "961", "0.715", "13.44", "350", "5.56", "1.27", "4.38"),
    (2, "Drive", 1, "598", "0.258", "23.18", "386", "6.48", "1.361", "4.76"),
    (2, "Drive", 2, "567", "0.21", "27", "388", "6.71", "1.256", "5.34"),
    (2, "Drive", 3, "593", "0.204", "29.07", "316", "6.52", "1.321", "4.94"),
    (2, "Drop", 1, "636", "0.446", "14.26", "260", "5.21", "1.12", "4.65"),
    (2, "Drop", 2, "679", "0.47", "14.45", "330", "5.58", "1.08", "5.17"),
    (2, "Drop", 3, "587", "0.413", "14.21", "285", "5.34", "1.11", "4.81"),
    (2, "Lob", 1, "686", "0.283", "24.24", "308", "6.22", "1.45", "4.29"),
    (2, "Lob", 2, "720", "0.276", "26.09", "362", "6.56", "1.89", "3.47"),
    (2, "Lob", 3, "710", "0.335", "21.19", "329", "6.12", "1.46", "4.19"),
    (2, "Boast", 1, "982", "1.02", "9.63", "469", "5.5", "1.35", "4.07"),
    (2, "Boast", 2, "999", "0.964", "10.36", "425", "5.46", "1.63", "3.35"),
    (2, "Boast", 3, "991", "0.94", "10.54", "440", "5.54", "1.42", "3.9"),
    (3, "Drive", 1, "625", "0.201", "31.09", "332", "6.69", "1.322", "5.06"),
    (3, "Drive", 2, "596", "0.196", "30.41", "351", "6.74", "1.34", "5.03"),
    (3, "Drive", 3, "610", "0.24", "25.42", "367", "6.54", "1.27", "5.15"),
    (3, "Drop", 1, "711", "0.452", "15.73", "373", "5.87", "1.09", "5.39"),
    (3, "Drop", 2, "690", "0.411", "16.79", "350", "5.88", "1.081", "5.44"),
    (3, "Drop", 3, "662", "0.43", "15.4", "360", "5.79", "1.113", "5.2"),
    (3, "Lob", 1, "600", "0.291", "20.62", "360", "6.21", "1.78", "3.49"),
    (3, "Lob", 2, "640", "0.334", "19.16", "371", "6.15", "1.64", "3.75"),
    (3, "Lob", 3, "701", "0.29", "24.17", "388", "6.55", "1.52", "4.31"),
    (3, "Boast", 1, "937", "0.999", "9.38", "483", "5.5", "1.13", "4.87"),
    (3, "Boast", 2, "962", "0.91", "10.57", "460", "5.6", "1.56", "3.59"),
    (3, "Boast", 3, "969", "1.08", "8.97", "490", "5.46", "1.44", "3.79"),
]

SHOTS = ("Drive", "Drop", "Lob", "Boast")


def derive(row):
    """(v, id_bits, ir) from one raw oracle row."""
    _, _, _, db, t, _, dp, _, mt, _ = row
    v = (float(db) / 100.0) / float(t)
    idb = log2(v * (float(dp) / 100.0))
    return v, idb, idb / float(mt)


def pop_sd(xs):
    m = fsum(xs) / len(xs)
    return math.sqrt(fsum((x - m) ** 2 for x in xs) / len(xs))


def ols_normal_equations(xs, ys):
    """(slope, intercept, r, r^2) via raw-sum normal equations."""
    n = len(xs)
    sx, sy = fsum(xs), fsum(ys)
    sxx = fsum(x * x for x in xs)
    sxy = fsum(x * y for x, y in zip(xs, ys))
    syy = fsum(y * y for y in ys)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    r = (n * sxy - sx * sy) / (math.sqrt(denom) * math.sqrt(n * syy - sy * sy))
    return slope, intercept, r, r * r


def ols2_cramer(rows):
    """(a, b1, b2) for y = a + b1*x1 + b2*x2 via Cramer on the 3x3
    normal equations (uncentered raw sums, unlike the package's centered
    2x2 elimination)."""
    n = len(rows)
    s1 = fsum(r[0] for r in rows)
    s2 = fsum(r[1] for r in rows)
    s11 = fsum(r[0] * r[0] for r in rows)
    s22 = fsum(r[1] * r[1] for r in rows)
    s12 = fsum(r[0] * r[1] for r in rows)
    sy = fsum(r[2] for r in rows)
    s1y = fsum(r[0] * r[2] for r in rows)
    s2y = fsum(r[1] * r[2] for r in rows)
    a_mat = [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]]
    b_vec = [sy, s1y, s2y]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(a_mat)
    coef = []
    for j in range(3):
        m = [row[:] for row in a_mat]
        for i in range(3):
            m[i][j] = b_vec[i]
        coef.append(det3(m) / d)
    return tuple(coef)


def points_recomputed(shot=None, exclude=None):
    pts = []
    for row in TABLE_RAW:
        if shot is not None and row[1] != shot:
            continue
        if exclude is not None and row[1] == exclude:
            continue
        _, idb, _ = derive(row)
        pts.append((idb, float(row[8])))
    return pts


def points_published(shot=None, exclude=None):
    return [(float(r[7]), float(r[8])) for r in TABLE_RAW
            if (shot is None or r[1] == shot)
            and (exclude is None or r[1] != exclude)]


# --- frozen expected values (produced by this module, pre-implementation) --

FROZEN_ALL36_RECOMP = (0.12457267598148902, 0.5888138361813667,
                       0.25021003891671884, 0.06260506357470595)
FROZEN_EXCL_DRIVE_RECOMP = (0.454907344962373, -1.2946003369140016,
                            0.5931863674418082, 0.35187006651880787)
FROZEN_EXCL_DRIVE_PUB = (0.456003491523099, -1.3007952234139066,
                         0.5930744891438677, 0.3517373496732597)
FROZEN_SHOT_FITS_RECOMP = {
    "Drive": (-0.20852409673730146, 2.6790297907559872,
              -0.6554464722447068, 0.42961007797803114),
    "Drop": (-0.0582619869270892, 1.4179107806311266,
             -0.5561381406440149, 0.3092896314789821),
    "Lob": (0.3633732671102755, -0.6148031182012351,
            0.35047979275751867, 0.12283608513135323),
    "Boast": (-0.8958720810024584, 6.324190647044267,
              -0.6195649754785088, 0.3838607588396851),
}
FROZEN_MEAN_IR = {
    "Drive": 5.245341777270782,
    "Drop": 5.228123615906207,
    "Lob": 3.797691361006929,
    "Boast": 4.267784896912854,
}
FROZEN_DERIVED_SPOTS = {
    (1, "Drive", 1): (29.746192893401016, 6.797671399966146, 5.57186180325094),
    (1, "Drive", 3): (29.29292929292929, 7.055172862338877, 5.735912896210469),
    (2, "Drop", 1): (14.260089686098656, 5.212422773505143, 4.653948904915306),
    (3, "Boast", 3): (8.972222222222221, 5.458247102479459, 3.7904493767218463),
}
# the one table row whose printed ID contradicts its own printed V and DP
ERRATUM_ROW = (1, "Drive", 3)

FROZEN_MC_WELFORD_COEF = (0.19975256029744676, 0.10000744733554931,
                          0.29940817723436897)
FROZEN_MC_WELFORD_SE = (0.0020734278577690555, 0.000631142691773793,
                        0.0006555233112497026)
MC_SEED = 20240819
MC_PLANT = (0.2, 0.1, 0.3)
MC_SIGMA = 0.01
MC_N = 200


def mc_welford_rows():
    """Deterministic Monte Carlo design used to freeze the constants above."""
    import random
    rng = random.Random(MC_SEED)
    rows = []
    for i in range(MC_N):
        amp = 1.0 + (i % 25) * 0.8
        wid = 0.25 + (i % 8) * 0.35
        x1 = log2(amp)
        x2 = log2(1.0 / wid)
        y = (MC_PLANT[0] + MC_PLANT[1] * x1 + MC_PLANT[2] * x2
             + rng.normalvariate(0.0, MC_SIGMA))
        rows.append((x1, x2, y))
    return rows


# --- per-point reference of run_analysis ----------------------------------
# Unlike the independent oracle above, this reference is assembled from the
# package's per-trial and per-point functions: derive every trial through
# the component operations (ball_speed, index_of_difficulty,
# information_rate), sort on (person, shot order, trial), then take each
# group's mean/population_sd and fit ols_simple on freshly filtered point
# lists. run_analysis works per (person, shot) cell instead and must agree
# with it bit for bit. mean, population_sd and ols_simple share the
# package's column kernel with run_analysis, so the kernel's own arithmetic
# is pinned by FROZEN_RAGGED_REPORT_SHA256 instead.

def reference_analysis(dataset, exclude_shots=frozenset()):
    """Dict of what run_analysis reports, computed per trial and per point."""
    from squashfitts import (DerivedTrial, ShotKind, ball_speed,
                             index_of_difficulty, information_rate, mean,
                             ols_simple, population_sd)

    def derive(t):
        v = ball_speed(t.ball_distance_cm, t.ball_time_s)
        idb = index_of_difficulty(v, t.player_distance_cm / 100.0)
        return DerivedTrial(base=t, ball_speed_mps=v, id_bits=idb,
                            info_rate_bps=information_rate(idb, t.movement_time_s))

    order = {kind: i for i, kind in enumerate(ShotKind)}
    derived = sorted((derive(t) for t in dataset.trials),
                     key=lambda t: (t.person_id, order[t.shot], t.trial_index))

    def stats(members):
        ids = [t.id_bits for t in members]
        mts = [t.movement_time_s for t in members]
        irs = [t.info_rate_bps for t in members]
        return (len(members), mean(ids), population_sd(ids), mean(mts),
                population_sd(mts), mean(irs))

    def fit(keep):
        return ols_simple([(t.id_bits, t.movement_time_s) for t in derived
                           if keep(t.shot)])

    cells, shots = {}, {}
    for t in derived:
        cells.setdefault((t.person_id, t.shot), []).append(t)
        shots.setdefault(t.shot, []).append(t)
    return {
        "derived_table": tuple(derived),
        "person_shot": [(key, stats(members)) for key, members in cells.items()],
        "shot": [((None, kind), stats(shots[kind]))
                 for kind in ShotKind if kind in shots],
        "overall_fit": fit(lambda shot: shot not in exclude_shots),
        "subset_fits": {f"exclude_{kind.value.lower()}":
                        fit(lambda shot, kind=kind: shot is not kind)
                        for kind in ShotKind},
        "per_shot_fits": {kind: fit(lambda shot, kind=kind: shot is kind)
                          for kind in ShotKind},
    }


# --- field-by-field dict form of the JSON report --------------------------
# render_report_json fills the per-row arrays into row templates; this is
# the same report built as a plain dict, field by field, so that
# json.dumps(report_document_dict(doc), indent=2, ensure_ascii=False) + "\n"
# is the reference its bytes are compared against.

def _group_dict(g):
    return {
        "group": str(g.key),
        "person_id": g.key.person_id,
        "shot": g.key.shot.value if g.key.shot else None,
        "n": g.n,
        "mean_id": g.mean_id, "sd_id": g.sd_id,
        "mean_mt": g.mean_mt, "sd_mt": g.sd_mt,
        "mean_ir": g.mean_ir,
        "display": {"mean_id": round(g.mean_id, 2), "sd_id": round(g.sd_id, 2),
                    "mean_mt": round(g.mean_mt, 2), "sd_mt": round(g.sd_mt, 2),
                    "mean_ir": round(g.mean_ir, 2)},
    }


def _trial_dict(t):
    return {
        "person": t.person_id, "shot": t.shot.value, "trial": t.trial_index,
        "db_cm": t.base.ball_distance_cm, "t_s": t.base.ball_time_s,
        "dp_cm": t.base.player_distance_cm, "mt_s": t.base.movement_time_s,
        "v_mps": t.ball_speed_mps, "id_bits": t.id_bits,
        "ir_bps": t.info_rate_bps,
        "display": {"v_mps": round(t.ball_speed_mps, 2),
                    "id_bits": round(t.id_bits, 2),
                    "ir_bps": round(t.info_rate_bps, 2)},
    }


def report_document_dict(report):
    """The JSON report of a ReportDocument as a dict in key order."""
    from squashfitts import pipeline

    return {
        **pipeline._head_dict(report),
        "derived_trials": [_trial_dict(t) for t in report.derived_table],
        "group_stats": {
            "person_shot": [_group_dict(g) for g in report.per_person_shot_stats],
            "shot": [_group_dict(g) for g in report.per_shot_stats],
        },
        **pipeline._tail_dict(report),
    }


#: sha256 of render_report_json(run_analysis(ragged set, options)) as the
#: per-point implementation wrote it before run_analysis aggregated per
#: cell (the ragged set is test_pipeline._ragged(5); keys name the options).
#: Recorded on CPython 3.11 with glibc's libm: a log2 from another libm may
#: differ in a last bit.
FROZEN_RAGGED_REPORT_SHA256 = {
    "default": "1c75e9b28f988056ec9505ee772d0f6cdb895e81e423bc9b53890e68fa31e0ad",
    "exclude_drive": "690c3ba8157a339d8825a45808ae29f618d9cf32e4665edc520630c2c90208e7",
}


#: sha256 of the stdout of `stats` and `fit --model squash` as written
#: before the CLI shared run_analysis's aggregation pass. Keys are (data,
#: case): data is the bundled table or the ragged set (test_pipeline.
#: _ragged(5) written with write_csv); fit cases name their --exclude-shot
#: flags. Recorded on CPython 3.11 with glibc's libm.
FROZEN_CLI_STDOUT_SHA256 = {
    ("bundled", "stats"): "421e03a8bd271340dcce87289d73649d620b799c072abf28c37d6bb0371b6031",
    ("bundled", "fit"): "5da29efd26d0157fc8fca9c30ae13bb1c9c71ce51e49b4f1ee29e71f100df967",
    ("bundled", "fit_exclude_drive"): "1dc9699a89cc5449d5bc729c0c56293156608be427eeb7b75716be4dece9e3e3",
    ("bundled", "fit_exclude_lob_boast"): "89db2aec978182378bc7cb11be061939a33e4c81ae7c2b1fd570f964df4d3f95",
    ("ragged", "stats"): "13d1cfb8af93cb72ae0549bed144755a665022109389134c6acc1db8f740948a",
    ("ragged", "fit"): "3797c9fb45415f796607a895f4932cbadf0869acc4b451bddfcae4e9789572c8",
    ("ragged", "fit_exclude_drive"): "3dbd77e691703fb4ca7fb0d025c874383c069522a69443e856178a7161ba16c9",
    ("ragged", "fit_exclude_lob_boast"): "d5a5eaa46106a7b402745ccbce82e70e7a72b7cb4a42340b89c6be1c2bdbe2e4",
}


#: sha256 of the figure files as written before emit_svg lost its style
#: argument and its AxisMapper. Keys (data, case, figure) give the (SVG,
#: series CSV) pair of figure_series(run_analysis(data, options), figure):
#: data is the bundled table or the ragged set (test_pipeline._ragged(5));
#: case names the options. The three string keys are the SVG of hand-built
#: series (test_plot._EDGE_SERIES). Recorded on CPython 3.11 with glibc's
#: libm.
FROZEN_FIGURE_SHA256 = {
    ("bundled", "default", 4): ("379e0980239714d64de229f724270571bfa0087b9b0c3f7b214b332bd9abadb4",
        "fd2ecda0aa028748f9d2926a1a79def5cfdfda1c3f4b121bdb9a347be988b368"),
    ("bundled", "default", 5): ("49bf9ea7cf0bf08f945f4aa44846fca96dd7f1b4b44c7f07029f5386897cea92",
        "208254d87f3f057094856fa07ff902deae472a0ab080e6a4ad5c44a8aff4213f"),
    ("bundled", "default", 6): ("be2ac5b776b49ea03702e7a1cdd93bc6f8b3b9719d696217cebb518b19225170",
        "26e2a705436e63b8c45d44fb2d41ef63fb872268d0bff4aea4bdd7af1bf9397f"),
    ("bundled", "default", 7): ("2fe9b5c71c3eb7a92de181ae7ba4f929985ca5d698247eb8e474da5d155dd53f",
        "b1e090cfb68d8cc5a896baa427065fb45c64f639813aba40a3a696eb1217bbb5"),
    ("bundled", "default", 8): ("2c2736662a5b51041983603d2324a0bb610eecaedd947ca08099031d3eec6e7e",
        "99152aae9aceeefdf64685ce7262410ee7eabaefd61643475af8c372a9a1432b"),
    ("bundled", "exclude_drive", 4): ("e0aa578e409860f7addb67c8952429542db0b3479a3fd9dfa9a959b85899a778",
        "1c691fca8e8e5956a7ef7b5bb65a20d84b62efd78d95868ff36bc405441eb7e5"),
    ("bundled", "exclude_drive", 5): ("49bf9ea7cf0bf08f945f4aa44846fca96dd7f1b4b44c7f07029f5386897cea92",
        "208254d87f3f057094856fa07ff902deae472a0ab080e6a4ad5c44a8aff4213f"),
    ("bundled", "exclude_drive", 6): ("be2ac5b776b49ea03702e7a1cdd93bc6f8b3b9719d696217cebb518b19225170",
        "26e2a705436e63b8c45d44fb2d41ef63fb872268d0bff4aea4bdd7af1bf9397f"),
    ("bundled", "exclude_drive", 7): ("2fe9b5c71c3eb7a92de181ae7ba4f929985ca5d698247eb8e474da5d155dd53f",
        "b1e090cfb68d8cc5a896baa427065fb45c64f639813aba40a3a696eb1217bbb5"),
    ("bundled", "exclude_drive", 8): ("2c2736662a5b51041983603d2324a0bb610eecaedd947ca08099031d3eec6e7e",
        "99152aae9aceeefdf64685ce7262410ee7eabaefd61643475af8c372a9a1432b"),
    ("ragged", "default", 4): ("d50a021d92a7f5478e373048deef0df5800a2592004892207ed4eb1052bf9015",
        "5c179ad3965e8f658267e8e2ef00437598513c59f65d6a8b822e4859bf5c2a77"),
    ("ragged", "default", 5): ("096aa1bb289c4de801ec71cd460d3774865f3ebc54201fdd5136a063d1da69bd",
        "79580e764b8fff0079c053590223bc1db0516678365d0300e2efacde367a6c2c"),
    ("ragged", "default", 6): ("80991da5f2834d6e010f2a7fc2f4687e6be67a81d421b6dc1e8b5df8bcaac62f",
        "082b7835e6f6b10ce8090ff7583d9cb2a1054417fda5033df91996fee763b2fd"),
    ("ragged", "default", 7): ("7171923cd8dbc1823f9f3edaceaf8cfaef344072a1b8cb4846a59ca8c895fa18",
        "c09a7ffc1ab960a548de68f27e17315d80215b756830c18ec7742ff821e12172"),
    ("ragged", "default", 8): ("81bf93fed34d38cf25ba7992a2edae9ef5c6b1f25a2296b157b8b47ff3025af0",
        "daa92c4b9668d055e91dcd505223c5594bba0d43336097644be4551db33836b6"),
    ("ragged", "exclude_drive", 4): ("b4d477002fa6a231b6760608eb1212a58b7beb741995a984767df683dc20c8f7",
        "a04468afb12f0d4600342ded54c11ffe93b0bc6468ac46659cb8263b147278e3"),
    ("ragged", "exclude_drive", 5): ("096aa1bb289c4de801ec71cd460d3774865f3ebc54201fdd5136a063d1da69bd",
        "79580e764b8fff0079c053590223bc1db0516678365d0300e2efacde367a6c2c"),
    ("ragged", "exclude_drive", 6): ("80991da5f2834d6e010f2a7fc2f4687e6be67a81d421b6dc1e8b5df8bcaac62f",
        "082b7835e6f6b10ce8090ff7583d9cb2a1054417fda5033df91996fee763b2fd"),
    ("ragged", "exclude_drive", 7): ("7171923cd8dbc1823f9f3edaceaf8cfaef344072a1b8cb4846a59ca8c895fa18",
        "c09a7ffc1ab960a548de68f27e17315d80215b756830c18ec7742ff821e12172"),
    ("ragged", "exclude_drive", 8): ("81bf93fed34d38cf25ba7992a2edae9ef5c6b1f25a2296b157b8b47ff3025af0",
        "daa92c4b9668d055e91dcd505223c5594bba0d43336097644be4551db33836b6"),
    "one_point": "de1d252191220f12ffa2de5215ff16731100df98a5419d404be2562ef4b69fdf",
    "equal_x": "1822a56a763129f7461f9ae0f77ebe891d551dcdfa7c0f0a5a7459f948ef1df8",
    "flat_y": "a66cae3b9e3044e8b9e687cfce2e9c6c65f2628a47d9e23d6d7d9589aa143a66",
}


#: sha256 of render_report_json(run_analysis(bundled table, options)),
#: recorded before the report's dict form moved into this module and the
#: as-published cross-check basis went through stats.aggregate. Keys name
#: the options. Recorded on CPython 3.11 with glibc's libm.
FROZEN_BUNDLED_REPORT_SHA256 = {
    "default": "c29a342859cb8b0caaba757466dc73a8db7ac12625c251548cbe6240ef3d1608",
    "exclude_drive": "dbbfebddcfa3540b7b177b04d9632ca9ab54ff75f700220c8d4340bd51053f8e",
    "exclude_lob_boast": "1f75f2cf43c211bc7262ba5ca1c7ab87ffe95fd36b689321c7eaa3199f123354",
    "tolerance_0.05": "de78adc493d2a6462e5e30dbf1c526e9aed07def0ce17be9446dfa576ee1f19c",
}

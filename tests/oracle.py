"""Brute-force reference evaluator with naive nested loops.

Deliberately independent of the library internals: operates on plain
arrays/lists extracted from a dataset and transcribes the scoring
definitions directly.  Used to cross-check constraint flags, objective
values and the canonical dataset text on small instances.
"""

import json
import math

import numpy as np


def extract(dataset):
    """Pull plain-python tables out of a Dataset for the oracle functions."""
    catalog, matrices, motions = dataset
    order = list(matrices.part_order)
    n = len(order)
    x_if = matrices.interference_free.tolist()
    x_ct = matrices.contact.tolist()
    x_cs = matrices.constraint_degree.tolist()
    rows = []
    for pid in order:
        rows.append([m.row.tolist() for m in motions.motions.get(pid, ())])
    manual = [catalog.by_id(pid).task_label == "manual" for pid in order]
    task = [catalog.by_id(pid).task_label for pid in order]
    com = [list(catalog.by_id(pid).com) for pid in order]
    priority = [catalog.by_id(pid).priority for pid in order]
    return {
        "order": order, "n": n, "x_if": x_if, "x_ct": x_ct, "x_cs": x_cs,
        "rows": rows, "manual": manual, "task": task, "com": com,
        "priority": priority,
        "index": {pid: i for i, pid in enumerate(order)},
    }


def order_terms(perm, tab, mode):
    """Per-position interference terms; position 1 is vacuously true."""
    terms = [True]
    for k in range(1, len(perm)):
        if mode == "as-written":
            ok = all(any(tab["x_if"][j][perm[i]][perm[k]] for j in range(6))
                     for i in range(k))
        else:
            ok = any(all(tab["x_if"][j][perm[i]][perm[k]] for i in range(k))
                     for j in range(6))
        terms.append(ok)
    return terms


def motion_terms(perm, tab, mode):
    """Per-position motion terms; manual parts are exempt."""
    terms = [True]
    for k in range(1, len(perm)):
        rows = tab["rows"][perm[k]]
        if tab["manual"][perm[k]]:
            ok = True
        elif mode == "as-written":
            ok = all(any(row[perm[i]] for row in rows) for i in range(k))
        else:
            ok = any(all(row[perm[i]] for i in range(k)) for row in rows)
        terms.append(ok)
    return terms


def stability_terms(perm, tab):
    """Per-position connection terms: some contact with a part below."""
    return [True] + [sum(tab["x_ct"][perm[i]][perm[k]] for i in range(k)) > 0
                     for k in range(1, len(perm))]


def order_ok(perm, tab, mode):
    return all(order_terms(perm, tab, mode))


def motion_ok(perm, tab, mode):
    return all(motion_terms(perm, tab, mode))


def stable_ok(perm, tab):
    return all(stability_terms(perm, tab))


def first_violation(perm, tab, mode):
    """(criterion, 1-based position) of the first failing term of the first
    failing criterion, checked in the order order/motion/stability."""
    for name, terms in (("order", order_terms(perm, tab, mode)),
                        ("motion", motion_terms(perm, tab, mode)),
                        ("stability", stability_terms(perm, tab))):
        if not all(terms):
            return name, terms.index(False) + 1
    return None


def objective_values(perm, tab):
    """The four objectives assuming availability; direct transcription."""
    n = len(perm)
    if n < 2:
        return (0.0, 0.0, 0.0, 0.0)
    peak = max(sum(tab["x_cs"][perm[i]][perm[k]] for i in range(k))
               for k in range(1, n))
    f_d = peak / (12.0 * (n - 1))

    changes = sum(tab["task"][perm[k]] != tab["task"][perm[k - 1]]
                  for k in range(1, n))
    travel = sum(math.dist(tab["com"][perm[k]], tab["com"][perm[k - 1]])
                 for k in range(1, n))
    d_max = max(math.dist(tab["com"][a], tab["com"][b])
                for a in range(n) for b in range(n))
    dist_term = travel / (n * d_max) if d_max > 0 else 0.0
    f_e = (changes / (n - 1) + dist_term) / 2.0

    prio_pos = [k + 1 for k in range(n) if tab["priority"][perm[k]]]
    if not prio_pos:
        f_p = 0.0
    else:
        r_max = sum(range(n - len(prio_pos) + 1, n + 1))
        f_p = 1.0 - sum(prio_pos) / r_max

    man_pos = [k + 1 for k in range(n) if tab["manual"][perm[k]]]
    if len(man_pos) < 2:
        f_a = 0.0
    else:
        f_a = (max(man_pos) - min(man_pos)) / (n - 1)
    return (f_d, f_e, f_p, f_a)


def evaluate(perm, tab, mode):
    """(order, motion, stable, objectives) for one index permutation."""
    o = order_ok(perm, tab, mode)
    m = motion_ok(perm, tab, mode)
    s = stable_ok(perm, tab)
    if o and m and s:
        return o, m, s, objective_values(perm, tab)
    return o, m, s, (1.0, 1.0, 1.0, 1.0)


def front_ranks(objs):
    """Repeated maximal-set peeling; independent of the fast sort."""
    remaining = list(range(len(objs)))
    rank = [None] * len(objs)
    level = 0
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if j == i:
                    continue
                if (all(objs[j][c] <= objs[i][c] for c in range(len(objs[i])))
                        and any(objs[j][c] < objs[i][c]
                                for c in range(len(objs[i])))):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        for i in front:
            rank[i] = level
        remaining = [i for i in remaining if rank[i] is None]
        level += 1
    return rank


def sweep_blocked(static_cells, mover_cells, direction, steps):
    """Naive cell-set sweep: does the mover hit the static part within
    ``steps`` one-cell displacements along ``direction``?"""
    static = set(map(tuple, static_cells))
    dx, dy, dz = direction
    for t in range(1, steps + 1):
        for (x, y, z) in mover_cells:
            if (x + dx * t, y + dy * t, z + dz * t) in static:
                return True
    return False


def ccgi_reference(graph, rng):
    """ccgi with the hop distances recomputed by BFS before every pick."""
    present = set(graph.nodes)
    removal = []
    while len(present) > 1:
        dist = {graph.root: 0}
        frontier = [graph.root]
        while frontier:
            nxt = []
            for cur in frontier:
                for nb in graph.neighbors[cur]:
                    if nb in present and nb not in dist:
                        dist[nb] = dist[cur] + 1
                        nxt.append(nb)
            frontier = nxt
        others = [v for v in present if v != graph.root]
        far = max(dist.get(v, math.inf) for v in others)
        candidates = sorted(v for v in others
                            if dist.get(v, math.inf) == far)
        picked = candidates[rng.integers(len(candidates))]
        if picked not in graph.fixing:
            fixers = sorted(nb for nb in graph.neighbors[picked]
                            if nb in present and nb in graph.fixing
                            and nb != graph.root)
            if fixers:
                picked = fixers[rng.integers(len(fixers))]
        removal.append(picked)
        present.remove(picked)
    removal.append(graph.root)
    return removal[::-1]


def rotation_blocked(static_cells, mover_cells, axis, angle_deg):
    """Naive nearest-cell rotation: does the mover, rotated by ``angle_deg``
    about ``axis`` through its centre of mass, land on a static cell?"""
    static = set(map(tuple, static_cells))
    centers = [[c + 0.5 for c in cell] for cell in mover_cells]
    com = [sum(p[d] for p in centers) / len(centers) for d in range(3)]
    u, v = [d for d in range(3) if d != axis]
    theta = math.radians(angle_deg)
    cos, sin = math.cos(theta), math.sin(theta)
    for p in centers:
        rel = [p[d] - com[d] for d in range(3)]
        rel[u], rel[v] = (cos * rel[u] - sin * rel[v],
                          sin * rel[u] + cos * rel[v])
        # round() on a float rounds half to even, as nearest-cell resampling
        if tuple(round(rel[d] + com[d] - 0.5) for d in range(3)) in static:
            return True
    return False


def face_contact(a_cells, b_cells):
    """Naive six-neighbour test: does any cell of b share a face with a?"""
    a = set(map(tuple, a_cells))
    for (x, y, z) in b_cells:
        for d in range(3):
            for s in (1, -1):
                n = [x, y, z]
                n[d] += s
                if tuple(n) in a:
                    return True
    return False


def rearrange_reference(matrices, rng, max_passes, with_stability):
    """fr (sfr with ``with_stability``) as a numpy rescan of every prefix:
    the strict order term over all six direction layers, the contact sum
    for stability, and ``np.isin`` for the latest-removed neighbour."""
    ids = np.array(matrices.part_order, dtype=np.int64)
    index = {int(pid): j for j, pid in enumerate(ids)}
    perm = np.array([index[int(x)] for x in rng.permutation(ids)],
                    dtype=np.int64)
    if_layers = matrices.interference_free.astype(bool)
    contact = matrices.contact.astype(np.int64)
    n = len(perm)
    for _ in range(max_passes):
        swapped = False
        for k in range(n - 1, 0, -1):
            if not if_layers[:, perm[:k], perm[k]].all(axis=1).any():
                r = int(rng.integers(k))
            elif with_stability and not contact[perm[:k], perm[k]].sum() > 0:
                touching = np.flatnonzero(contact[perm[k]] > 0)
                if len(touching) == 0:
                    continue
                pos = np.flatnonzero(np.isin(perm, touching)).min()
                r = int(rng.integers(pos, n))
            else:
                continue
            perm[k], perm[r] = perm[r], perm[k]
            swapped = True
        if not swapped:
            break
    return ids[perm]


def dataset_json(dataset):
    """The canonical text of a dataset as ``json.dumps`` writes its document
    of nested lists: sorted keys, compact separators and a final newline."""
    catalog, matrices, motions = dataset
    parts = []
    for p in catalog:
        part = {"id": p.id, "name": p.name, "eef": p.eef,
                "com": [float(c) for c in p.com],
                "labels": {"task": p.task_label, "priority": p.priority,
                           "base": p.base, "ignore": p.ignore}}
        if p.size is not None:
            part["size"] = float(p.size)
        parts.append(part)
    doc = {
        "version": 1,
        "parts": parts,
        "part_order": list(matrices.part_order),
        "x_if": matrices.interference_free.astype(int).tolist(),
        "x_cf": matrices.constraint_free.astype(int).tolist(),
        "x_ct": matrices.contact.astype(int).tolist(),
        "x_cs": matrices.constraint_degree.astype(int).tolist(),
        "motions": {str(pid): [{"id": m.id, "kind": m.kind,
                                "row": m.row.astype(int).tolist()}
                               for m in entries]
                    for pid, entries in motions.motions.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

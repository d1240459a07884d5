"""The batched shuffle pass: one round of gossip exchanges as columnwise phases.

This module is the vectorized replacement for the engine's old per-initiator
Python loop. A round's exchanges are decomposed into sub-phases that each touch
every exchange at once:

A. **Partner selection** — per live row, the oldest occupied primary-view slot
   (argmax over effective ages), tie-broken by a position-keyed draw; the
   selected slot is cleared.
B. **Request subsets** — per view, every slot gets a keyed draw (ineligible
   slots get the ``MASK64`` sentinel); slots sort by ``(key, slot)`` and the
   first ``min(want, eligible)`` are taken. The sender's own descriptor (age 0)
   is appended to its own-class subset.
C. **Delivery filtering** — wire sizes and tx are accounted for every request,
   then drop masks apply in fixed precedence: ``lost_in_transit`` →
   ``partitioned`` → ``dead_partner`` → unreachable-partner (``nat_filtered``
   for croupier/cyclon; ``no_relay_parent`` for Gozar private partners with no
   live parent; ``broken_chain`` for Nylon private partners whose
   learned-from RVP is gone). Gozar relays and Nylon hole-punch control packets
   account their extra traffic here.
D. **Estimator counters** — delivered requests bump the partner's (Cu, Cv)
   current-round counters by initiator class (croupier only).
E–G. **Partner handling** — delivered exchanges, ordered by ``(partner,
   initiator)``: the reply subset is drawn from the partner's *current* view
   (keyed by ``initiator * V + slot``), the request is merged in, and the
   response estimate bundle is built from the post-ingest cache — the object
   protocol's request-handler order. The sequence executes as *waves* (one
   exchange per partner per wave, so batched rows are distinct); within a wave
   no two exchanges share a partner, so wave order equals the sequential
   ``(partner, initiator)`` order. Replies must not come from a pre-round
   snapshot: a popular partner would send every requester the same entries,
   which degenerates the overlay at scale.
H. **Responses** — ascending initiator order: size/tx accounting, response
   loss keyed by the partner's class, Gozar relay for private initiators, then
   one batched merge into the (all-distinct) initiator rows.

Every random decision is a position-keyed counter draw (see
:mod:`repro.columnar.rng`), so results are independent of evaluation order.

The merge rule: snapshot the pre-merge view; each received entry
(skipping negatives and the row's own id) first tries to *refresh* the slot
whose snapshot id matches (age becomes the min); unmatched entries are placed,
in received order, into ascending snapshot-empty slots, then over sent entries
still at their snapshot slot (in sent order); leftovers are dropped. All
refreshes land before any placement, so an eviction overwrites a refresh —
matching the object backend's sequential ``updateView``.

Gozar and Nylon NAT maintenance (:func:`maintain_parents`,
:func:`send_keepalives`) runs as a single shared scalar pass — it is O(private
rows) and far off the hot path. Maintenance traffic ignores loss and partitions
(documented delta).
"""

from __future__ import annotations

from typing import Dict

from repro.columnar import backend
from repro.columnar import rng as crng
from repro.columnar.backend import as_np

#: Wire-size accounting constants (bytes). Only relative magnitudes matter for
#: the Figure 7(a)-style per-class load comparison; they approximate the object
#: backend's descriptor (address + age), estimate entry, and control sizes.
DESCRIPTOR_BYTES = 8
ESTIMATE_BYTES = 5
HEADER_BYTES = 12
CONTROL_BYTES = 16
PARENT_ADDR_BYTES = 6

#: Drop-reason fold order: the pass accumulates counts locally and folds them
#: into ``engine.drops`` in this fixed order, so the dict's insertion order (and
#: therefore canonical JSON) never depends on which drops happened first.
DROP_REASONS = (
    "lost_in_transit",
    "partitioned",
    "dead_partner",
    "nat_filtered",
    "no_relay_parent",
    "broken_chain",
)


def run_shuffle_round(eng) -> None:
    """Execute the current round's full shuffle pass on ``eng``."""
    _shuffle_numpy(eng)


def _fold_drops(eng, local: Dict[str, int]) -> None:
    for reason in DROP_REASONS:
        count = local[reason]
        if count:
            eng.drops[reason] = eng.drops.get(reason, 0) + count


# ---------------------------------------------------------------------------
# the batched pass
# ---------------------------------------------------------------------------


def _subsets_np(np, view_ids, view_ages, slotkeys, stream_base, want,
                exclude, self_mask, self_ids, width):
    """Batched keyed-subset selection over gathered ``(M, V)`` view snapshots.

    Per row: every eligible slot gets a keyed draw and ineligible slots the
    ``MASK64`` sentinel; a stable argsort (== (key, slot) order) ranks them, the
    first ``min(want, eligible)`` are taken, then the optional self descriptor
    is appended at column ``cnt``."""
    elig = view_ids >= 0
    if exclude is not None:
        elig &= view_ids != exclude[:, None]
    keys = crng.draws_np(np, stream_base, slotkeys)
    keys = np.where(elig, keys, np.uint64(crng.MASK64))
    order = np.argsort(keys, axis=1, kind="stable")
    cnt = np.minimum(want, elig.sum(axis=1))
    take = order[:, :width]
    valid = np.arange(width)[None, :] < cnt[:, None]
    slots = np.where(valid, take, -1)
    ids = np.where(valid, np.take_along_axis(view_ids, take, axis=1), -1)
    ages = np.where(valid, np.take_along_axis(view_ages, take, axis=1), 0)
    if self_mask is not None:
        rows = np.nonzero(self_mask)[0]
        ids[rows, cnt[rows]] = self_ids[rows]
        ages[rows, cnt[rows]] = 0
        cnt = cnt + self_mask
    return slots, ids, ages, cnt


def _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                    rec_ids, rec_ages, rec_aux, sent_ids, sent_slots):
    """Apply the merge rule to many *distinct* rows at once.

    ``rows``: (M,) distinct row indices; ``rec_*``: (M, R) received entries
    (``rec_aux``: (M,) per-row aux value, or None); ``sent_*``: (M, S)."""
    M, R = rec_ids.shape
    V = ids2d.shape[1]
    snap = ids2d[rows]  # gather == pre-merge snapshot copy
    valid = (rec_ids >= 0) & (rec_ids != rows[:, None])
    matched = np.full((M, R), -1, dtype=np.int64)
    for s in range(V):
        col = snap[:, s][:, None]
        hit = valid & (matched < 0) & (col >= 0) & (rec_ids == col)
        matched[hit] = s
    for j in range(R):
        mj = matched[:, j]
        m = mj >= 0
        if not m.any():
            continue
        rr = rows[m]
        ss = mj[m]
        ages2d[rr, ss] = np.minimum(ages2d[rr, ss], rec_ages[m, j])
        if aux2d is not None:
            aux2d[rr, ss] = rec_aux[m]
    empty = snap < 0
    ecum = empty.cumsum(axis=1)
    n_empty = ecum[:, -1]
    S = sent_ids.shape[1] if sent_ids is not None else 0
    targ = np.full((M, V + S), -1, dtype=np.int64)
    for s in range(V):
        m = empty[:, s]
        targ[m, ecum[m, s] - 1] = s
    ntarg = n_empty
    if S:
        ss_clip = np.where(sent_slots >= 0, sent_slots, 0)
        still = (
            (sent_ids >= 0)
            & (sent_slots >= 0)
            & (np.take_along_axis(snap, ss_clip, axis=1) == sent_ids)
        )
        vcum = still.cumsum(axis=1)
        for t in range(S):
            m = still[:, t]
            targ[m, (n_empty + vcum[:, t] - 1)[m]] = sent_slots[m, t]
        ntarg = n_empty + vcum[:, -1]
    unmatched = valid & (matched < 0)
    ucum = unmatched.cumsum(axis=1)
    for j in range(R):
        m = unmatched[:, j] & (ucum[:, j] <= ntarg)
        if not m.any():
            continue
        rowsm = np.nonzero(m)[0]
        tt = targ[rowsm, ucum[rowsm, j] - 1]
        rr = rows[rowsm]
        ids2d[rr, tt] = rec_ids[rowsm, j]
        ages2d[rr, tt] = rec_ages[rowsm, j]
        if aux2d is not None:
            aux2d[rr, tt] = rec_aux[rowsm]


def _bundles_np(eng, np, rows):
    """Estimate bundles for ``rows``: (origs, vals, borns, valid) as (M, 1+FWD)
    arrays, in :meth:`ColumnarEngine._estimate_bundle` order (local first, then
    the FWD most recent ring entries, freshness-masked)."""
    C, G, FWD = eng.C, eng.G, eng.FWD
    M = rows.size
    B = 1 + FWD
    origs = np.full((M, B), -1, dtype=np.int64)
    vals = np.zeros((M, B))
    borns = np.zeros((M, B), dtype=np.int64)
    valid = np.zeros((M, B), dtype=bool)
    loc = as_np(eng.loc_est)[rows]
    origs[:, 0] = rows
    vals[:, 0] = loc
    borns[:, 0] = eng.round
    valid[:, 0] = loc >= 0.0
    if FWD:
        pos = as_np(eng.est_pos)[rows].astype(np.int64)
        eo = as_np(eng.est_origin)
        ev = as_np(eng.est_val)
        eb = as_np(eng.est_born)
        born_min = eng.round - G
        for b in range(1, FWD + 1):
            flat = rows * C + (pos - b) % C
            bb = eb[flat]
            origs[:, b] = eo[flat]
            vals[:, b] = ev[flat]
            borns[:, b] = bb
            valid[:, b] = bb >= born_min
    return origs, vals, borns, valid


def _batch_ingest_np(eng, np, rows, origs, vals, borns, valid):
    """Origin-keyed bundle merge into many *distinct* rows (bit-identical to
    the sequential :meth:`ColumnarEngine._ingest_estimates`): a matching origin
    is refreshed only by a strictly larger born; unseen origins take the ring
    cursor slot. Bundle entries are applied left to right so an insert is
    visible to the next entry of the same bundle (each iteration re-reads the
    ring through fresh fancy-index gathers)."""
    C = eng.C
    pos_np = as_np(eng.est_pos)
    eo = as_np(eng.est_origin)
    ev = as_np(eng.est_val)
    eb = as_np(eng.est_born)
    base_all = rows * C
    for b in range(valid.shape[1]):
        m = valid[:, b]
        if not m.any():
            continue
        base = base_all[m]
        o = origs[m, b]
        v = vals[m, b]
        bo = borns[m, b]
        match = np.full(base.size, -1, dtype=np.int64)
        for c in range(C - 1, -1, -1):
            match = np.where(eo[base + c] == o, c, match)
        found = match >= 0
        if found.any():
            fm = np.nonzero(found)[0]
            flat = base[fm] + match[fm]
            fresher = bo[fm] > eb[flat]
            if fresher.any():
                fl = flat[fresher]
                ev[fl] = v[fm][fresher]
                eb[fl] = bo[fm][fresher]
        ins = ~found
        if ins.any():
            im = np.nonzero(ins)[0]
            ri = rows[m][im]
            p = pos_np[ri].astype(np.int64)
            flat = ri * C + p
            eo[flat] = o[im]
            ev[flat] = v[im]
            eb[flat] = bo[im]
            pos_np[ri] = ((p + 1) % C).astype(pos_np.dtype)


def _private_desc_count_np(np, pub, ids):
    """Per row, how many sent descriptors name a private node (Gozar parent-list
    payload accounting)."""
    return ((ids >= 0) & (pub[np.clip(ids, 0, None)] == 0)).sum(axis=1)


def _shuffle_numpy(eng) -> None:
    np = backend.np
    V, K = eng.V, eng.K
    n = eng._rows
    rnd = eng.round
    seed = eng.hash_seed
    proto = eng.protocol
    estimating = eng.estimating
    gozar = proto == "gozar"
    nylon = proto == "nylon"
    alive = as_np(eng.alive)[:n]
    pub = as_np(eng.is_public)[:n]
    ids2d = as_np(eng.pub_id)[: n * V].reshape(n, V)
    ages2d = as_np(eng.pub_age)[: n * V].reshape(n, V)
    aux2d = as_np(eng.learned_from)[: n * V].reshape(n, V) if nylon else None
    tx = as_np(eng.tx_bytes)
    rx = as_np(eng.rx_bytes)
    loss_pub, loss_priv = eng.loss_public, eng.loss_private
    loss_active = loss_pub > 0.0 or loss_priv > 0.0
    drops = dict.fromkeys(DROP_REASONS, 0)

    # --- A: partner selection (oldest slot, keyed tie-break), slot cleared
    occ = ids2d >= 0
    age_eff = np.where(occ, ages2d, -1)
    best = age_eff.max(axis=1)
    ties = (age_eff == best[:, None]) & occ
    tie_cnt = ties.sum(axis=1)
    base_tie = crng.stream(seed, rnd, crng.TAG_TIE)
    pick = (
        crng.draws_np(np, base_tie, np.arange(n, dtype=np.uint64))
        % np.maximum(tie_cnt, 1).astype(np.uint64)
    ).astype(np.int64)
    sel = np.argmax(ties.cumsum(axis=1) == (pick + 1)[:, None], axis=1)
    init = np.nonzero((alive != 0) & (tie_cnt > 0))[0]
    if init.size == 0:
        _fold_drops(eng, drops)
        return
    sslot = sel[init]
    partner = ids2d[init, sslot]
    rvp = aux2d[init, sslot] if nylon else None
    ids2d[init, sslot] = -1
    ages2d[init, sslot] = 0
    if nylon:
        aux2d[init, sslot] = -1

    M = init.size
    i_pub = pub[init] != 0

    # --- B: request subsets from the post-selection views
    slotkeys = (
        init[:, None].astype(np.uint64) * np.uint64(V)
        + np.arange(V, dtype=np.uint64)[None, :]
    )
    base_req_pub = crng.stream(seed, rnd, crng.TAG_REQ_PUB)
    if estimating:
        pids2d = as_np(eng.priv_id)[: n * V].reshape(n, V)
        pages2d = as_np(eng.priv_age)[: n * V].reshape(n, V)
        rp = _subsets_np(np, ids2d[init], ages2d[init], slotkeys, base_req_pub,
                         np.where(i_pub, K - 1, K), None, i_pub, init, K)
        base_req_priv = crng.stream(seed, rnd, crng.TAG_REQ_PRIV)
        rq = _subsets_np(np, pids2d[init], pages2d[init], slotkeys, base_req_priv,
                         np.where(i_pub, K, K - 1), None, ~i_pub, init, K)
        rp_slots, rp_ids, rp_ages, rp_cnt = rp
        rq_slots, rq_ids, rq_ages, rq_cnt = rq
        n_desc = rp_cnt + rq_cnt
    else:
        rp = _subsets_np(np, ids2d[init], ages2d[init], slotkeys, base_req_pub,
                         np.full(M, K - 1, dtype=np.int64), None,
                         np.ones(M, dtype=bool), init, K)
        rp_slots, rp_ids, rp_ages, rp_cnt = rp
        n_desc = rp_cnt

    # --- C: delivery filtering (+ request-size accounting)
    if estimating:
        bi_origs, bi_vals, bi_borns, bi_valid = _bundles_np(eng, np, init)
        size = (HEADER_BYTES + n_desc * DESCRIPTOR_BYTES
                + bi_valid.sum(axis=1) * ESTIMATE_BYTES)
    else:
        size = HEADER_BYTES + n_desc * DESCRIPTOR_BYTES
    if gozar:
        P = eng.P
        par2d = as_np(eng.parent_id)[: n * P].reshape(n, P)
        size = size + _private_desc_count_np(np, pub, rp_ids) * (P * PARENT_ADDR_BYTES)
    eng.packets_sent += M
    tx[init] += size  # initiator rows are distinct
    remaining = np.ones(M, dtype=bool)
    if loss_active:
        u = crng.uniforms_np(
            np, crng.stream(seed, rnd, crng.TAG_LOSS_REQ), init.astype(np.uint64)
        )
        lost = u < np.where(i_pub, loss_pub, loss_priv)
        drops["lost_in_transit"] += int(lost.sum())
        remaining &= ~lost
    if eng._partition_active:
        iso = as_np(eng.isolated)[:n]
        parted = remaining & (iso[init] != iso[partner])
        drops["partitioned"] += int(parted.sum())
        remaining &= ~parted
    deadp = remaining & (alive[partner] == 0)
    drops["dead_partner"] += int(deadp.sum())
    remaining &= ~deadp
    priv_partner = remaining & (pub[partner] == 0)
    if gozar:
        pp = par2d[partner]
        pp_live = (pp >= 0) & (alive[np.clip(pp, 0, None)] != 0)
        pp_cnt = pp_live.sum(axis=1)
        norelay = priv_partner & (pp_cnt == 0)
        drops["no_relay_parent"] += int(norelay.sum())
        remaining &= ~norelay
        relaying = priv_partner & ~norelay
        if relaying.any():
            k = (
                crng.draws_np(np, crng.stream(seed, rnd, crng.TAG_RELAY_REQ),
                              init.astype(np.uint64))
                % np.maximum(pp_cnt, 1).astype(np.uint64)
            ).astype(np.int64)
            rslot = np.argmax(pp_live.cumsum(axis=1) == (k + 1)[:, None], axis=1)
            relay = pp[np.arange(M), rslot][relaying]
            np.add.at(rx, relay, size[relaying])
            np.add.at(tx, relay, size[relaying])
            eng.packets_sent += int(relaying.sum())
    elif nylon:
        broken = priv_partner & ((rvp < 0) | (alive[np.clip(rvp, 0, None)] == 0))
        drops["broken_chain"] += int(broken.sum())
        remaining &= ~broken
        punch = priv_partner & ~broken
        if punch.any():
            pr = np.nonzero(punch)[0]
            tx[init[pr]] += CONTROL_BYTES
            np.add.at(rx, rvp[pr], CONTROL_BYTES)
            np.add.at(tx, rvp[pr], CONTROL_BYTES)
            np.add.at(rx, partner[pr], CONTROL_BYTES)
            np.add.at(tx, partner[pr], CONTROL_BYTES)
            rx[init[pr]] += CONTROL_BYTES
            eng.packets_sent += 3 * int(punch.sum())
    else:
        drops["nat_filtered"] += int(priv_partner.sum())
        remaining &= ~priv_partner
    np.add.at(rx, partner[remaining], size[remaining])

    # --- D: estimator counters by initiator class
    if estimating:
        cu = as_np(eng.cur_cu)[:n]
        cv = as_np(eng.cur_cv)[:n]
        cu += np.bincount(partner[remaining & i_pub], minlength=n).astype(np.int32)
        cv += np.bincount(partner[remaining & ~i_pub], minlength=n).astype(np.int32)

    d = np.nonzero(remaining)[0]
    if d.size == 0:
        _fold_drops(eng, drops)
        return
    D = d.size
    I_ = init[d]
    P_ = partner[d]

    # --- E+F+G: per-exchange partner handling as (partner, initiator)-ordered
    # waves — one exchange per partner per wave, so rows are distinct within a
    # wave and batched ops are safe. Each wave draws its reply subsets from the
    # partner's *current* view (reflecting earlier waves' request merges),
    # merges its requests, then builds its response bundles from the
    # post-ingest estimate cache — the object protocol's request-handler
    # order. Drawing all replies from a pre-round snapshot instead degenerates
    # the overlay at scale (a popular partner would send every requester the
    # same entries).
    order = np.lexsort((I_, P_))
    Ps = P_[order]
    idx = np.arange(D)
    newgrp = np.ones(D, dtype=bool)
    newgrp[1:] = Ps[1:] != Ps[:-1]
    rank = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
    base_rep_pub = crng.stream(seed, rnd, crng.TAG_REPLY_PUB)
    base_rep_priv = crng.stream(seed, rnd, crng.TAG_REPLY_PRIV) if estimating else 0
    slot_arange = np.arange(V, dtype=np.uint64)[None, :]
    ep_slots = np.empty((D, K), dtype=np.int64)
    ep_ids = np.empty((D, K), dtype=np.int64)
    ep_ages = np.empty((D, K), dtype=np.int64)
    ep_cnt = np.empty(D, dtype=np.int64)
    drp_ids, drp_ages, drp_slots = rp_ids[d], rp_ages[d], rp_slots[d]
    if estimating:
        eq_slots = np.empty((D, K), dtype=np.int64)
        eq_ids = np.empty((D, K), dtype=np.int64)
        eq_ages = np.empty((D, K), dtype=np.int64)
        eq_cnt = np.empty(D, dtype=np.int64)
        B = 1 + eng.FWD
        bp_origs = np.empty((D, B), dtype=np.int64)
        bp_vals = np.empty((D, B))
        bp_borns = np.empty((D, B), dtype=np.int64)
        bp_valid = np.empty((D, B), dtype=bool)
        drq_ids, drq_ages, drq_slots = rq_ids[d], rq_ages[d], rq_slots[d]
        dbi_origs, dbi_vals, dbi_borns, dbi_valid = (
            bi_origs[d], bi_vals[d], bi_borns[d], bi_valid[d],
        )
    for w in range(int(rank.max()) + 1):
        sel_w = order[rank == w]  # one exchange per partner: rows are distinct
        rows = P_[sel_w]
        iw = I_[sel_w]
        wkeys = iw[:, None].astype(np.uint64) * np.uint64(V) + slot_arange
        # Scalar K broadcasts inside _subsets_np (np.minimum); materialising a
        # per-wave rows.size vector here was pure allocator traffic.
        s_, id_, a_, c_ = _subsets_np(
            np, ids2d[rows], ages2d[rows], wkeys, base_rep_pub, K, iw,
            None, None, K,
        )
        ep_slots[sel_w] = s_
        ep_ids[sel_w] = id_
        ep_ages[sel_w] = a_
        ep_cnt[sel_w] = c_
        if estimating:
            qs_, qid_, qa_, qc_ = _subsets_np(
                np, pids2d[rows], pages2d[rows], wkeys, base_rep_priv, K, iw,
                None, None, K,
            )
            eq_slots[sel_w] = qs_
            eq_ids[sel_w] = qid_
            eq_ages[sel_w] = qa_
            eq_cnt[sel_w] = qc_
        _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                        drp_ids[sel_w], drp_ages[sel_w], iw, id_, s_)
        if estimating:
            _batch_merge_np(np, pids2d, pages2d, None, rows,
                            drq_ids[sel_w], drq_ages[sel_w], None, qid_, qs_)
            _batch_ingest_np(eng, np, rows, dbi_origs[sel_w],
                             dbi_vals[sel_w], dbi_borns[sel_w], dbi_valid[sel_w])
            o_, v_, b_, va_ = _bundles_np(eng, np, rows)
            bp_origs[sel_w] = o_
            bp_vals[sel_w] = v_
            bp_borns[sel_w] = b_
            bp_valid[sel_w] = va_

    # --- H: responses, ascending initiator order (rows are distinct)
    resp_size = HEADER_BYTES + (ep_cnt + (eq_cnt if estimating else 0)) * DESCRIPTOR_BYTES
    if estimating:
        resp_size = resp_size + bp_valid.sum(axis=1) * ESTIMATE_BYTES
    if gozar:
        resp_size = resp_size + _private_desc_count_np(np, pub, ep_ids) * (
            P * PARENT_ADDR_BYTES
        )
    np.add.at(tx, P_, resp_size)  # partners may repeat
    eng.packets_sent += D
    ok = np.ones(D, dtype=bool)
    if loss_active:
        u2 = crng.uniforms_np(
            np, crng.stream(seed, rnd, crng.TAG_LOSS_RESP), I_.astype(np.uint64)
        )
        lost2 = u2 < np.where(pub[P_] != 0, loss_pub, loss_priv)
        drops["lost_in_transit"] += int(lost2.sum())
        ok &= ~lost2
    if gozar:
        priv_init = ok & (pub[I_] == 0)
        ip = par2d[I_]
        ip_live = (ip >= 0) & (alive[np.clip(ip, 0, None)] != 0)
        ip_cnt = ip_live.sum(axis=1)
        norelay2 = priv_init & (ip_cnt == 0)
        drops["no_relay_parent"] += int(norelay2.sum())
        ok &= ~norelay2
        relaying2 = priv_init & ~norelay2
        if relaying2.any():
            k2 = (
                crng.draws_np(np, crng.stream(seed, rnd, crng.TAG_RELAY_RESP),
                              I_.astype(np.uint64))
                % np.maximum(ip_cnt, 1).astype(np.uint64)
            ).astype(np.int64)
            rslot2 = np.argmax(ip_live.cumsum(axis=1) == (k2 + 1)[:, None], axis=1)
            relay2 = ip[np.arange(D), rslot2][relaying2]
            np.add.at(rx, relay2, resp_size[relaying2])
            np.add.at(tx, relay2, resp_size[relaying2])
            eng.packets_sent += int(relaying2.sum())
    fin = np.nonzero(ok)[0]
    if fin.size:
        rows = I_[fin]
        rx[rows] += resp_size[fin]
        _batch_merge_np(np, ids2d, ages2d, aux2d, rows,
                        ep_ids[fin], ep_ages[fin], P_[fin],
                        drp_ids[fin], drp_slots[fin])
        if estimating:
            _batch_merge_np(np, pids2d, pages2d, None, rows,
                            eq_ids[fin], eq_ages[fin], None,
                            drq_ids[fin], drq_slots[fin])
            _batch_ingest_np(eng, np, rows, bp_origs[fin],
                             bp_vals[fin], bp_borns[fin], bp_valid[fin])
    _fold_drops(eng, drops)


# ---------------------------------------------------------------------------
# NAT maintenance phases (scalar passes; off the hot path)
# ---------------------------------------------------------------------------


def maintain_parents(eng) -> None:
    """Gozar parent maintenance, run each round before the shuffle pass.

    Per live private row (ascending): dead parent slots are cleared; missing
    parents are recruited from live public view entries ranked by a keyed draw
    (registration costs one request/ack control exchange); every
    ``parent_keepalive_every`` rounds each live parent gets a keep-alive/ack
    pair. Maintenance traffic ignores loss and partitions (documented delta),
    and registration is instantaneous — a recruit is usable the same round.
    """
    V, P = eng.V, eng.P
    n = eng._rows
    alive, is_public = eng.alive, eng.is_public
    parent_id, pub_id = eng.parent_id, eng.pub_id
    tx, rx = eng.tx_bytes, eng.rx_bytes
    base_parent = crng.stream(eng.hash_seed, eng.round, crng.TAG_PARENT)
    keepalive = eng.round % eng.parent_keepalive_every == 0
    for row in range(1, n):
        if not alive[row] or is_public[row]:
            continue
        pbase = row * P
        live = 0
        for s in range(P):
            pid = parent_id[pbase + s]
            if pid >= 0:
                if alive[pid]:
                    live += 1
                else:
                    parent_id[pbase + s] = -1
        needed = P - live
        if needed > 0:
            vbase = row * V
            current = {parent_id[pbase + s] for s in range(P)
                       if parent_id[pbase + s] >= 0}
            cands = []
            for s in range(V):
                nid = pub_id[vbase + s]
                if nid >= 0 and is_public[nid] and alive[nid] and nid not in current:
                    cands.append((crng.draw(base_parent, row * V + s), s))
            cands.sort()
            empties = [s for s in range(P) if parent_id[pbase + s] < 0]
            for (_key, vs), ps in zip(cands[:needed], empties):
                nid = pub_id[vbase + vs]
                parent_id[pbase + ps] = nid
                tx[row] += CONTROL_BYTES
                rx[nid] += CONTROL_BYTES
                tx[nid] += CONTROL_BYTES
                rx[row] += CONTROL_BYTES
                eng.packets_sent += 2
        if keepalive:
            for s in range(P):
                pid = parent_id[pbase + s]
                if pid >= 0:
                    tx[row] += CONTROL_BYTES
                    rx[pid] += CONTROL_BYTES
                    tx[pid] += CONTROL_BYTES
                    rx[row] += CONTROL_BYTES
                    eng.packets_sent += 2


def send_keepalives(eng) -> None:
    """Nylon NAT-mapping keep-alives, run each round before the shuffle pass.

    Every live private row pings its first ``keepalive_fanout`` live view
    entries (slot order, no ack). Keep-alive traffic ignores loss and
    partitions (documented delta)."""
    V = eng.V
    n = eng._rows
    fan = eng.keepalive_fanout
    alive, is_public = eng.alive, eng.is_public
    pub_id = eng.pub_id
    tx, rx = eng.tx_bytes, eng.rx_bytes
    for row in range(1, n):
        if not alive[row] or is_public[row]:
            continue
        vbase = row * V
        sent = 0
        for s in range(V):
            if sent >= fan:
                break
            nid = pub_id[vbase + s]
            if nid >= 0 and alive[nid]:
                tx[row] += CONTROL_BYTES
                rx[nid] += CONTROL_BYTES
                eng.packets_sent += 1
                sent += 1

"""Reference computations the tests compare missmix against.

Each oracle works densely and cell by cell from the model's definition,
and uses only missmix's public names, so it shares no code with the
routines it checks. All of them are meant for small instances.
"""

import itertools
import math

import numpy as np
from scipy import stats

from missmix import MissmixError, ParseError

# Enumerating V ** n_missing joint assignments beyond this is refused.
ORACLE_ASSIGNMENT_LIMIT = 1_000_000


class OracleLimitError(MissmixError):
    """A brute-force oracle was asked to enumerate too large a space."""


def user_rows(dataset):
    """Each user's observed (items, values), sorted by item, picked out of
    the (user, item, value) triples one user at a time."""
    rows = []
    for user in range(dataset.n_users):
        mine = dataset.users == user
        order = np.argsort(dataset.items[mine], kind="stable")
        rows.append((dataset.items[mine][order], dataset.values[mine][order]))
    return rows


def compute_gamma(params, cptv, dataset):
    """Dense per-cell evidence table, shape (N, M, K).

    gamma[i, m, z] is the probability of cell (i, m)'s outcome given
    component z: mu[x] * beta[x, m, z] for an entry observed with value
    x, and the hidden-cell mass sum_v (1 - mu[v]) * beta[v, m, z]
    otherwise.
    """
    V, M, K = params.beta.shape
    out = np.empty((dataset.n_users, M, K))
    for m in range(M):
        for z in range(K):
            out[:, m, z] = sum((1.0 - cptv.mu[v]) * params.beta[v, m, z]
                               for v in range(V))
    for i, m, x in zip(dataset.users, dataset.items, dataset.values):
        out[i, m, :] = cptv.mu[x - 1] * params.beta[x - 1, m, :]
    return out


def brute_force_user_evidence(params, mu, observed_items, observed_values):
    """Joint probability of one user's observed values and response
    pattern, by exact enumeration over the hidden entries.

    Every assignment of the missing ratings is enumerated; for each, the
    mixture-and-observation probability is accumulated with exact
    summation. Raises OracleLimitError once V ** n_missing exceeds
    ORACLE_ASSIGNMENT_LIMIT.
    """
    V, M, K = params.beta.shape
    mu = np.asarray(mu, dtype=float)
    observed_items = np.asarray(observed_items, dtype=np.int64)
    observed_values = np.asarray(observed_values, dtype=np.int64)
    is_observed = np.zeros(M, dtype=bool)
    is_observed[observed_items] = True
    missing_items = np.flatnonzero(~is_observed)
    if V ** len(missing_items) > ORACLE_ASSIGNMENT_LIMIT:
        raise OracleLimitError(
            f"{V} ** {len(missing_items)} assignments exceed the"
            f" enumeration limit {ORACLE_ASSIGNMENT_LIMIT}")

    theta, beta = params.theta, params.beta
    full = np.zeros(M, dtype=np.int64)
    full[observed_items] = observed_values
    terms = []
    for assignment in itertools.product(range(1, V + 1), repeat=len(missing_items)):
        full[missing_items] = assignment
        obs_prob = np.where(is_observed, mu[full - 1], 1.0 - mu[full - 1])
        for z in range(K):
            cell = beta[full - 1, np.arange(M), z] * obs_prob
            terms.append(theta[z] * math.prod(cell.tolist()))
    return math.fsum(terms)


def log_posterior(params, dataset, mu=None, prior=None):
    """The log posterior a fit maximises, term by term.

    The log of each user's evidence: with ``mu``, the enumeration of
    `brute_force_user_evidence`; without it, the mixture of direct
    products over the user's observed cells. Plus scipy's Dirichlet log
    densities of theta under alpha and of every beta[:, m, z] under phi,
    and, with ``prior = (xi1, xi0)``, the Beta log density of each mu[v].
    """
    V, M, K = params.beta.shape
    terms = []
    for i in range(dataset.n_users):
        mine = dataset.users == i
        items, values = dataset.items[mine], dataset.values[mine]
        if mu is None:
            evidence = math.fsum(
                params.theta[z] * math.prod(params.beta[values - 1, items, z].tolist())
                for z in range(K))
        else:
            evidence = brute_force_user_evidence(params, mu, items, values)
        terms.append(math.log(evidence))
    terms.append(stats.dirichlet.logpdf(params.theta, np.full(K, params.alpha)))
    terms += [stats.dirichlet.logpdf(params.beta[:, m, z], np.full(V, params.phi))
              for m in range(M) for z in range(K)]
    if prior is not None:
        terms += stats.beta.logpdf(mu, *prior).tolist()
    return math.fsum(terms)


def expected_complete_objective(theta, beta, q, dataset, alpha, phi,
                                mu=None, old=None, prior=None):
    """The objective an M-step maximises, summed cell by cell.

    Without ``mu`` (the value-blind model) it is
    sum_i sum_z q[i, z] (log theta[z] + sum over i's observed (m, x) of
    log beta[x, m, z]) plus the Dirichlet terms (alpha - 1) log theta and
    (phi - 1) log beta. With ``mu``, each observed cell also adds
    log mu[x], and each hidden cell adds, for every value v,
    w[v] (log beta[v, m, z] + log(1 - mu[v])), where w is the posterior
    of the hidden value under the parameters ``old = (beta, mu)`` the
    responsibilities q were computed from. ``prior = (xi1, xi0)`` adds
    the Beta terms of mu. Normalising constants are left out.
    """
    observed = {(u, m): x for u, m, x in zip(dataset.users.tolist(),
                                             dataset.items.tolist(),
                                             dataset.values.tolist())}
    total = ((alpha - 1.0) * np.log(theta)).sum() + ((phi - 1.0) * np.log(beta)).sum()
    for i in range(dataset.n_users):
        for z in range(len(theta)):
            user = math.log(theta[z])
            for m in range(dataset.n_items):
                x = observed.get((i, m))
                if x is not None:
                    user += math.log(beta[x - 1, m, z])
                    if mu is not None:
                        user += math.log(mu[x - 1])
                elif mu is not None:
                    old_beta, old_mu = old
                    w = (1.0 - old_mu) * old_beta[:, m, z]
                    user += (w / w.sum() * (np.log(beta[:, m, z])
                                            + np.log1p(-mu))).sum()
            total += q[i, z] * user
    if prior is not None:
        xi1, xi0 = prior
        total += ((xi1 - 1.0) * np.log(mu) + (xi0 - 1.0) * np.log1p(-mu)).sum()
    return float(total)


def parse_ratings_rows(raw, n=3):
    """The ``(line, user, item[, rating])`` rows of a ratings CSV given as bytes.

    A line-by-line reading of the ratings grammar: one header line, then
    rows of ``n`` to 3 comma-separated fields, of which the first ``n``
    are integers read here, with user and item >= 0; blank lines are
    skipped. Raises ParseError, with the line number, at the first row
    that breaks it. Fields are Python ints, so values outside int64 come
    back as they are.
    """
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    if not lines:
        raise ParseError("missing header line", line=1)
    widths = "3" if n == 3 else f"{n} to 3"
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if not n <= len(parts) <= 3:
            raise ParseError(f"expected {widths} comma-separated fields, got {len(parts)}",
                             line=ln)
        try:
            fields = [int(p) for p in parts[:n]]
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=ln) from None
        if fields[0] < 0 or fields[1] < 0:
            raise ParseError(f"negative id in {line!r}", line=ln)
        rows.append((ln, *fields))
    return rows


def whole_table_ground_truth(n_users, n_items, n_values, n_components, seed,
                             concentration=1.0):
    """``(theta, beta, z, complete)`` of a synthetic population drawn with
    the N x M uniform table made at once: beta is (V, M, K), and each rating
    is 1 plus the number of its cell's first V-1 CDF values below its draw."""
    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(np.full(n_components, concentration))
    beta = rng.dirichlet(np.full(n_values, concentration), size=(n_items, n_components))
    beta = np.ascontiguousarray(beta.transpose(2, 0, 1))
    z = rng.choice(n_components, size=n_users, p=theta)
    u = rng.random((n_users, n_items))
    complete = np.ones((n_users, n_items), np.int16)
    for cdf in np.cumsum(beta, axis=0)[:-1]:
        complete += cdf.T[z] < u
    return theta, beta, z, complete


def whole_table_keep_mask(complete, mu, seed):
    """Cell (i, m) of rating v is kept where its uniform draw, from one
    N x M table, is below mu[v-1]."""
    return np.random.default_rng(seed).random(complete.shape) < mu[complete - 1]


def whole_table_probe_mask(shape, per_user, seed):
    """The ``per_user`` cells of each row with the smallest keys of one
    N x M uniform table."""
    keys = np.random.default_rng(seed).random(shape)
    probe = np.zeros(shape, dtype=bool)
    np.put_along_axis(probe, np.argpartition(keys, per_user - 1, axis=1)[:, :per_user],
                      True, axis=1)
    return probe


def whole_table_study(complete, mu, seed, per_user_test, min_train):
    """``(train, test, kept)`` of a study split: the kept cells less the
    probe, and the probe, each as (users, items, values) triples over the
    users with at least ``min_train`` training cells, re-indexed densely."""
    seed_missing, seed_test = np.random.SeedSequence(seed).spawn(2)
    probe = whole_table_probe_mask(complete.shape, per_user_test, seed_test)
    train = whole_table_keep_mask(complete, mu, seed_missing) & ~probe
    kept = np.flatnonzero(train.sum(axis=1) >= min_train)

    def triples(mask):
        mask = mask[kept]
        return (*np.nonzero(mask), complete[kept][mask])
    return triples(train), triples(probe), kept

/* The iteration body of harea's primal-dual loop, compiled.

   pd_run(state, steps) runs `steps` iterations in place on the buffers of
   one solve, which harea/pdloop.py packs into `struct pd_state`.  Every
   element goes through the operations of the NumPy block in harea/solver.py,
   in the same order and with the same roundings, so the iterates are equal
   bit for bit:

   - h div: (q0 + q1) - (q0[prev0] + q1[c - 1]); the rim cells are rewritten
     from sums that start at 0.0 and add the rim entries in order, as
     bincount does;
   - the primal step hdiv * factor + u, rounded twice;
   - the boundary prox: max, min, min and max in the NumPy block's order,
     with NumPy's rule for NaN and signed zeros (the first operand wins only
     when it is strictly larger, or smaller, or NaN); an owner with m > 2
     faces takes the m-th smallest of its 2m + 1 candidates, NaN last;
   - h grad: the forward differences first, then the rewritten entries;
   - the dual: ((g + hX*) + q), g0*g0 + g1*g1, sqrt, max(., radius), and
     numerator / ., then q * keep + g and u + du * relax.

   Build with -ffp-contract=off: contracting a * b + c into one fused
   multiply-add rounds once where NumPy rounds twice. */

#include <math.h>
#include <stddef.h>

typedef ptrdiff_t idx_t;

struct pd_state {
    idx_t n;
    double *u, *q, *g, *u_step, *du; /* q and g are component-major (2, n) */
    const double *hxs;               /* h X*, (2, n) */
    /* h div */
    const idx_t *prev0;
    idx_t n_rim, n_rim_entries;
    const idx_t *rim, *rim_entries, *rim_bins;
    double *rim_sums;                /* (2 n_rim) */
    /* h grad */
    const idx_t *next0;
    idx_t n_edge;
    const idx_t *edge, *edge_cells;  /* edge_cells (2, n_edge) */
    /* boundary prox */
    int constrained;
    idx_t n_owner;
    const idx_t *owner;              /* interior index of each owner cell */
    const double *lo, *hi, *t, *mean;
    idx_t n_multi;                   /* owners with more than two faces */
    const idx_t *multi_pos, *multi_m, *multi_off;
    const double *multi_data;        /* per such owner: m face values, then the m + 1 moves */
    double *multi_x, *select;        /* (n_multi) and (2 max m + 1) */
    double factor, radius, numerator, keep, relax;
};

size_t pd_state_size(void) { return sizeof(struct pd_state); }

static inline double np_max(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double np_min(double a, double b) { return (a < b || a != a) ? a : b; }

/* the order of np.sort: NaN after every number */
static inline int before(double a, double b) { return a < b || (b != b && a == a); }

static double order_statistic(double *v, idx_t len, idx_t k)
{
    for (idx_t i = 1; i < len; i++) {
        double x = v[i];
        idx_t j = i;
        for (; j > 0 && before(x, v[j - 1]); j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
    return v[k];
}

/* u_step = hdiv(q) * factor + u */
static void primal_step(const struct pd_state *s)
{
    const idx_t n = s->n;
    const double *q0 = s->q, *q1 = s->q + n, *u = s->u;
    const idx_t *prev0 = s->prev0;
    double *out = s->u_step, *sums = s->rim_sums;
    if (n > 0)
        out[0] = (q0[0] + q1[0]) - q0[prev0[0]]; /* cell 0 is on the rim */
    for (idx_t c = 1; c < n; c++)
        out[c] = (q0[c] + q1[c]) - (q0[prev0[c]] + q1[c - 1]);
    for (idx_t r = 0; r < 2 * s->n_rim; r++)
        sums[r] = 0.0;
    for (idx_t e = 0; e < s->n_rim_entries; e++)
        sums[s->rim_bins[e]] += s->q[s->rim_entries[e]];
    for (idx_t r = 0; r < s->n_rim; r++)
        out[s->rim[r]] = sums[r] - sums[s->n_rim + r];
    for (idx_t c = 0; c < n; c++)
        out[c] = out[c] * s->factor + u[c];
}

static void prox(const struct pd_state *s)
{
    double *v = s->u_step;
    if (s->constrained) {
        for (idx_t i = 0; i < s->n_owner; i++)
            v[s->owner[i]] = s->mean[i];
        return;
    }
    for (idx_t j = 0; j < s->n_multi; j++) {
        idx_t m = s->multi_m[j];
        const double *faces = s->multi_data + s->multi_off[j], *moves = faces + m;
        double vi = v[s->owner[s->multi_pos[j]]];
        for (idx_t i = 0; i < m; i++)
            s->select[i] = faces[i];
        for (idx_t i = 0; i <= m; i++)
            s->select[m + i] = vi + moves[i];
        s->multi_x[j] = order_statistic(s->select, 2 * m + 1, m);
    }
    for (idx_t i = 0; i < s->n_owner; i++) {
        double vi = v[s->owner[i]];
        double x = np_max(vi, s->lo[i]);
        x = np_min(x, s->hi[i]);
        x = np_min(x, vi + s->t[i]);
        v[s->owner[i]] = np_max(x, vi - s->t[i]);
    }
    for (idx_t j = 0; j < s->n_multi; j++)
        v[s->owner[s->multi_pos[j]]] = s->multi_x[j];
}

/* g = hgrad(u_step) */
static void hgrad(const struct pd_state *s)
{
    const idx_t n = s->n;
    const double *v = s->u_step;
    double *g0 = s->g, *g1 = s->g + n;
    for (idx_t c = 0; c < n; c++)
        g0[c] = v[s->next0[c]] - v[c];
    for (idx_t c = 0; c + 1 < n; c++)
        g1[c] = v[c + 1] - v[c];
    for (idx_t e = 0; e < s->n_edge; e++)
        s->g[s->edge[e]] = v[s->edge_cells[e]] - v[s->edge_cells[s->n_edge + e]];
}

void pd_run(const struct pd_state *s, idx_t steps)
{
    const idx_t n = s->n;
    double *u = s->u, *u_step = s->u_step, *du = s->du;
    double *q0 = s->q, *q1 = s->q + n, *g0 = s->g, *g1 = s->g + n;
    const double *x0 = s->hxs, *x1 = s->hxs + n;
    for (idx_t k = 0; k < steps; k++) {
        /* u~ = prox(u + factor hdiv(q)), kept as du = u~ - u and u_step = 2 u~ - u */
        primal_step(s);
        prox(s);
        for (idx_t c = 0; c < n; c++) {
            double d = u_step[c] - u[c];
            du[c] = d;
            u_step[c] = u_step[c] + d;
        }
        /* g = relax proj(q + hgrad(2 u~ - u) + hX*), then the relaxed updates */
        hgrad(s);
        for (idx_t c = 0; c < n; c++) {
            double a0 = (g0[c] + x0[c]) + q0[c];
            double a1 = (g1[c] + x1[c]) + q1[c];
            double f = s->numerator / np_max(sqrt(a0 * a0 + a1 * a1), s->radius);
            a0 = a0 * f;
            a1 = a1 * f;
            q0[c] = q0[c] * s->keep + a0;
            q1[c] = q1[c] * s->keep + a1;
            double d = du[c] * s->relax;
            du[c] = d;
            u[c] = u[c] + d;
        }
    }
}

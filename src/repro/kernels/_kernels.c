/* Compiled kernels for the repro hot loops.
 *
 * Every function mirrors, operation for operation, the pure-Python
 * reference in repro/kernels/reference.py: identical traversal order,
 * identical floating-point accumulation order, identical union-find
 * rule.  That mirroring is a hard contract — the parity suite asserts
 * bit-identical flows, cuts, and codewords against the reference — so
 * any change here must be made in lockstep with reference.py.
 *
 * Built on demand by repro/kernels/native_cc.py:
 *     cc -O3 -fPIC -shared -o repro_kernels_<hash>.so _kernels.c
 * and loaded through ctypes.  Plain C99, no Python.h — the interface
 * is raw int64/double/int8/uint8 buffers so the same source could back
 * a Cython or cffi build unchanged.
 */

#include <stdint.h>
#include <float.h>
#include <math.h>

#define EPS 1e-12

/* ------------------------------------------------------------------ */
/* Dinic max flow over flat residual arc arrays                        */
/* ------------------------------------------------------------------ */

static void bfs_levels(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    const double *arc_flow,
    int64_t source,
    int64_t *level,
    int64_t *queue)
{
    for (int64_t i = 0; i < n; i++) level[i] = -1;
    level[source] = 0;
    int64_t qhead = 0, qtail = 0;
    queue[qtail++] = source;
    while (qhead < qtail) {
        int64_t cur = queue[qhead++];
        for (int64_t k = indptr[cur]; k < indptr[cur + 1]; k++) {
            int64_t a = adj[k];
            int64_t head = arc_head[a];
            if (level[head] < 0 && arc_cap[a] - arc_flow[a] > EPS) {
                level[head] = level[cur] + 1;
                queue[qtail++] = head;
            }
        }
    }
}

static double blocking_flow(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    double *arc_flow,
    int64_t *level,
    int64_t *iters,
    int64_t *stack,
    int64_t *path,
    int64_t source,
    int64_t sink)
{
    for (int64_t i = 0; i < n; i++) iters[i] = 0;
    double total = 0.0;
    int64_t stack_len = 0, path_len = 0;
    stack[stack_len++] = source;
    while (stack_len > 0) {
        int64_t u = stack[stack_len - 1];
        if (u == sink) {
            double push = DBL_MAX;
            for (int64_t k = 0; k < path_len; k++) {
                double residual = arc_cap[path[k]] - arc_flow[path[k]];
                if (residual < push) push = residual;
            }
            total += push;
            for (int64_t k = 0; k < path_len; k++) {
                int64_t a = path[k];
                arc_flow[a] += push;
                arc_flow[a ^ 1] -= push;
            }
            /* Retreat to just past the first arc this push saturated. */
            int64_t cut = 0;
            for (int64_t k = 0; k < path_len; k++) {
                if (arc_cap[path[k]] - arc_flow[path[k]] <= EPS) {
                    cut = k;
                    break;
                }
            }
            stack_len = cut + 1;
            path_len = cut;
            continue;
        }
        int advanced = 0;
        while (iters[u] < indptr[u + 1] - indptr[u]) {
            int64_t a = adj[indptr[u] + iters[u]];
            int64_t head = arc_head[a];
            if (arc_cap[a] - arc_flow[a] > EPS && level[head] == level[u] + 1) {
                stack[stack_len++] = head;
                path[path_len++] = a;
                advanced = 1;
                break;
            }
            iters[u]++;
        }
        if (!advanced) {
            level[u] = -1; /* dead end for the rest of this phase */
            stack_len--;
            if (path_len > 0) {
                path_len--;
                iters[stack[stack_len - 1]]++;
            }
        }
    }
    return total;
}

double repro_dinic_solve(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    double *arc_flow,
    int64_t *level,
    int64_t *iters,
    int64_t *stack,
    int64_t *path,
    int64_t *queue,
    int64_t source,
    int64_t sink,
    int64_t *phases_out)
{
    double total = 0.0;
    int64_t phases = 0;
    for (;;) {
        bfs_levels(n, indptr, adj, arc_head, arc_cap, arc_flow, source,
                   level, queue);
        if (level[sink] < 0) break;
        phases++;
        total += blocking_flow(n, indptr, adj, arc_head, arc_cap, arc_flow,
                               level, iters, stack, path, source, sink);
    }
    *phases_out = phases;
    return total;
}

void repro_residual_reachable(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    const double *arc_flow,
    uint8_t *seen,
    int64_t *stack,
    int64_t source)
{
    for (int64_t i = 0; i < n; i++) seen[i] = 0;
    seen[source] = 1;
    int64_t stack_len = 0;
    stack[stack_len++] = source;
    while (stack_len > 0) {
        int64_t cur = stack[--stack_len];
        for (int64_t k = indptr[cur]; k < indptr[cur + 1]; k++) {
            int64_t a = adj[k];
            int64_t head = arc_head[a];
            if (!seen[head] && arc_cap[a] - arc_flow[a] > EPS) {
                seen[head] = 1;
                stack[stack_len++] = head;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Weighted contraction over an edge list + union-find parent vector   */
/* ------------------------------------------------------------------ */

static int64_t uf_find(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

int64_t repro_contract_to(
    int64_t m,
    const int64_t *tails,
    const int64_t *heads,
    const double *weights,
    int64_t *parent,
    int64_t n,
    int64_t size,
    int64_t target,
    const double *uniforms,
    int64_t *used_out)
{
    int64_t used = 0;
    int64_t current = size;
    while (current > target) {
        double total = 0.0;
        for (int64_t e = 0; e < m; e++) {
            if (uf_find(parent, tails[e]) != uf_find(parent, heads[e]))
                total += weights[e];
        }
        if (total <= 0.0) break;
        double pick = uniforms[used] * total;
        used++;
        double acc = 0.0;
        int64_t chosen = -1;
        for (int64_t e = 0; e < m; e++) {
            int64_t ra = uf_find(parent, tails[e]);
            int64_t rb = uf_find(parent, heads[e]);
            if (ra == rb) continue;
            chosen = e;
            acc += weights[e];
            if (pick <= acc) break;
        }
        int64_t ra = uf_find(parent, tails[chosen]);
        int64_t rb = uf_find(parent, heads[chosen]);
        parent[rb] = ra;
        current--;
    }
    for (int64_t i = 0; i < n; i++) parent[i] = uf_find(parent, i);
    *used_out = used;
    return current;
}

/* ------------------------------------------------------------------ */
/* Stoer–Wagner global min cut over a dense weight matrix              */
/* ------------------------------------------------------------------ */

double repro_stoer_wagner(
    int64_t n,
    double *w,        /* n x n symmetric, zero diagonal; mutated */
    uint8_t *side,    /* n: filled with the best cut's side */
    double *key,      /* n scratch: attachment weights by alive position */
    int64_t *alive,   /* n scratch: alive node indices, ascending */
    int64_t *group)   /* n scratch: super node of each original node */
{
    for (int64_t i = 0; i < n; i++) {
        alive[i] = i;
        group[i] = i;
    }
    double best = INFINITY;
    for (int64_t remaining = n; remaining > 1; remaining--) {
        /* The scans run over alive positions, which ascend with the
         * node index, so "first strict maximum" is the reference's. */
        int64_t start = alive[0];
        const double *start_row = w + start * n;
        for (int64_t j = 0; j < remaining; j++) key[j] = start_row[alive[j]];
        key[0] = -INFINITY;
        int64_t pick = -1;
        double top = -INFINITY;
        for (int64_t j = 0; j < remaining; j++) {
            if (key[j] > top) {
                top = key[j];
                pick = j;
            }
        }
        int64_t s = start, t = start;
        double cut = 0.0;
        for (int64_t step = 1; step < remaining; step++) {
            s = t;
            t = alive[pick];
            cut = key[pick];
            key[pick] = -INFINITY;
            /* Add t's row and find the next pick in the same pass. */
            const double *row = w + t * n;
            top = -INFINITY;
            pick = -1;
            for (int64_t j = 0; j < remaining; j++) {
                key[j] += row[alive[j]];
                if (key[j] > top) {
                    top = key[j];
                    pick = j;
                }
            }
        }
        if (cut < best) {
            best = cut;
            for (int64_t i = 0; i < n; i++) side[i] = group[i] == t;
        }
        for (int64_t i = 0; i < n; i++)
            if (group[i] == t) group[i] = s;
        double *srow = w + s * n, *trow = w + t * n;
        for (int64_t v = 0; v < n; v++) srow[v] += trow[v];
        for (int64_t v = 0; v < n; v++) w[v * n + s] = srow[v];
        srow[s] = 0.0;
        for (int64_t v = 0; v < n; v++) {
            trow[v] = 0.0;
            w[v * n + t] = 0.0;
        }
        int64_t j = 0;
        while (alive[j] != t) j++;
        for (; j + 1 < remaining; j++) alive[j] = alive[j + 1];
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Lemma 3.2 Hadamard products (blocked sign-flip kernels)             */
/* ------------------------------------------------------------------ */

void repro_had_combine_many(
    int64_t side,
    const int8_t *h,
    const int64_t *coeff, /* B x side x side */
    int64_t batch,
    int64_t *tmp,         /* side x side scratch */
    int64_t *out)         /* B x side*side */
{
    for (int64_t b = 0; b < batch; b++) {
        const int64_t *c = coeff + b * side * side;
        int64_t *dst = out + b * side * side;
        /* tmp = C H  (H entries are ±1: adds and subtracts only) */
        for (int64_t i = 0; i < side; i++) {
            for (int64_t j = 0; j < side; j++) {
                int64_t acc = 0;
                for (int64_t k = 0; k < side; k++) {
                    int64_t v = c[i * side + k];
                    acc += (h[k * side + j] > 0) ? v : -v;
                }
                tmp[i * side + j] = acc;
            }
        }
        /* dst = H^T tmp */
        for (int64_t i = 0; i < side; i++) {
            for (int64_t j = 0; j < side; j++) {
                int64_t acc = 0;
                for (int64_t k = 0; k < side; k++) {
                    int64_t v = tmp[k * side + j];
                    acc += (h[k * side + i] > 0) ? v : -v;
                }
                dst[i * side + j] = acc;
            }
        }
    }
}

void repro_had_row_products(
    int64_t side,
    const int8_t *h,
    const double *x,  /* side*side, row-major X */
    double *tmp,      /* side x side scratch */
    double *out)      /* side x side: out[i][j] = <x, H_i (x) H_j> */
{
    /* tmp = X H^T : tmp[i][j] = sum_k X[i][k] * H[j][k] */
    for (int64_t i = 0; i < side; i++) {
        for (int64_t j = 0; j < side; j++) {
            double acc = 0.0;
            for (int64_t k = 0; k < side; k++) {
                double v = x[i * side + k];
                acc += (h[j * side + k] > 0) ? v : -v;
            }
            tmp[i * side + j] = acc;
        }
    }
    /* out = H tmp : out[i][j] = sum_k H[i][k] * tmp[k][j] */
    for (int64_t i = 0; i < side; i++) {
        for (int64_t j = 0; j < side; j++) {
            double acc = 0.0;
            for (int64_t k = 0; k < side; k++) {
                double v = tmp[k * side + j];
                acc += (h[i * side + k] > 0) ? v : -v;
            }
            out[i * side + j] = acc;
        }
    }
}

double repro_had_decode_one(
    int64_t side,
    const int8_t *h,
    const double *x,
    int64_t i,
    int64_t j)
{
    double acc = 0.0;
    for (int64_t k = 0; k < side; k++) {
        double inner = 0.0;
        for (int64_t l = 0; l < side; l++) {
            double v = x[k * side + l];
            inner += (h[j * side + l] > 0) ? v : -v;
        }
        acc += (h[i * side + k] > 0) ? inner : -inner;
    }
    return acc;
}

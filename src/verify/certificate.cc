/**
 * @file
 * The `certificate` backend: verify an optimizer's output by replaying
 * the derivation it recorded (ir/derivation.h) from the checker's own
 * input, in the manner of translation validation (Pnueli, Siegel and
 * Singerman, TACAS 1998): the optimizer is not trusted, and the result
 * is not re-derived from scratch either.
 *
 * Each step on the path from the root to the best step is checked on
 * its own:
 *  - references: every index is in range, and every pre-step gate no
 *    block consumed and every replacement gate is referenced exactly
 *    once by the post-step order;
 *  - convexity: contracting every block to one node leaves the
 *    pre-step circuit acyclic, and contracting every replacement
 *    leaves the post-step circuit acyclic;
 *  - wire order: each wire's post-step gate sequence is its pre-step
 *    sequence with every block's gates on that wire substituted by
 *    its replacement's gates on that wire;
 *  - local distance: Δ of each block against its replacement, on the
 *    block's at most kMaxBlockQubits qubits, computed here from the
 *    gates (never read from the optimizer).
 * The replayed circuit must then equal the output gate for gate.
 *
 * Why that bounds the distance (paper Thm. 4.2/5.3): with the
 * contracted pre-step graph acyclic, the pre-step unitary is the
 * product of its nodes in a topological order, and by the wire-order
 * check the same order with each block swapped for its replacement is
 * a topological order of the post-step circuit. Δ is unitarily
 * invariant, unchanged by ⊗ I and obeys the triangle inequality, so
 * swapping the blocks one at a time moves the unitary by at most the
 * sum of their local Δ, and the steps add up the same way.
 *
 * Numerics: Δ comes from linalg::phaseAlignedDistance, not hsDistance,
 * whose 1 − a² cancellation floors an exact block at ~1.5e-8: over a
 * hundred blocks that alone would exceed the verification tolerance.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/derivation.h"
#include "linalg/unitary.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/timer.h"
#include "verify/checker.h"

namespace guoq {
namespace verify {

namespace {

using linalg::Complex;

/** The widest block checked (a 16 x 16 local unitary; resynthesis
 *  blocks are capped at 4 qubits, rule patterns span at most 3). */
constexpr int kMaxBlockQubits = 4;
constexpr std::size_t kMaxBlockDim = std::size_t{1} << kMaxBlockQubits;
constexpr std::uint32_t kNone = UINT32_MAX;

/** "" when @p g is a well-formed gate on @p num_qubits qubits. */
std::string
gateProblem(const ir::Gate &g, int num_qubits)
{
    if (g.arity() != ir::gateArity(g.kind) ||
        g.params.size() !=
            static_cast<std::size_t>(ir::gateParamCount(g.kind)))
        return "a malformed replacement gate";
    for (double p : g.params)
        if (!std::isfinite(p))
            return "a replacement gate with a non-finite angle";
    for (std::size_t i = 0; i < g.qubits.size(); ++i) {
        if (g.qubits[i] < 0 || g.qubits[i] >= num_qubits)
            return "a replacement gate on a qubit out of range";
        for (std::size_t j = 0; j < i; ++j)
            if (g.qubits[j] == g.qubits[i])
                return "a replacement gate with a repeated qubit";
    }
    return "";
}

/** U <- (product of @p gates in list order) on the local register
 *  @p qubits (sorted global qubits), starting from the identity. */
void
localUnitary(const std::vector<const ir::Gate *> &gates,
             const std::vector<int> &qubits, Complex *u)
{
    const int k = static_cast<int>(qubits.size());
    const std::size_t dim = std::size_t{1} << k;
    std::fill(u, u + dim * dim, Complex{});
    for (std::size_t i = 0; i < dim; ++i)
        u[i * dim + i] = 1;
    for (const ir::Gate *g : gates) {
        int local[sim::BoundGate::kMaxArity];
        for (int j = 0; j < g->arity(); ++j)
            local[j] = static_cast<int>(
                std::lower_bound(qubits.begin(), qubits.end(),
                                 g->qubits[static_cast<std::size_t>(j)]) -
                qubits.begin());
        sim::BoundGate bg;
        bg.place(local, g->arity(), k);
        bg.setMatrix(g->kind, g->params.data());
        sim::applyLeft(u, dim, bg);
    }
}

/** Replays a derivation step by step over gate pointers (into the
 *  input circuit and the derivation's replacement lists), reusing its
 *  scratch across steps. */
class Replay
{
  public:
    explicit Replay(const ir::Circuit &a) : numQubits_(a.numQubits())
    {
        for (const ir::Gate &g : a.gates())
            cur_.push_back(&g);
    }

    const std::vector<const ir::Gate *> &gates() const { return cur_; }

    /** Check @p st against the current circuit and advance to its
     *  post-step circuit. Adds the step's Σ Δ to @p delta; returns ""
     *  or what is wrong. */
    std::string step(const ir::DerivationStep &st, double &delta);

  private:
    std::string references(const ir::DerivationStep &st);
    /** Is the graph over nodes [0, num_nodes) acyclic, whose wire
     *  edges join consecutive entries of @p gates on a wire, entry k
     *  being node @p node[k]? */
    bool acyclic(const std::vector<const ir::Gate *> &gates,
                 const std::vector<std::uint32_t> &node,
                 std::size_t num_nodes);
    bool wireOrderHolds(const ir::DerivationStep &st);

    int numQubits_;
    std::vector<const ir::Gate *> cur_, next_;
    std::vector<std::int32_t> owner_;     // pre gate -> block, -1 kept
    std::vector<std::uint32_t> repBase_;  // block -> its first rep id − n
    std::vector<std::uint32_t> repBlock_; // rep id − n -> block
    std::vector<std::uint8_t> used_;      // reference id -> referenced
    std::vector<std::uint32_t> nextRef_;  // post gate -> reference id
    std::vector<std::uint32_t> preNode_, postNode_;
    // acyclic() scratch.
    std::vector<std::uint32_t> last_, indeg_, start_, adj_, queue_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
    std::vector<std::uint8_t> present_;
    // wireOrderHolds() scratch.
    std::vector<std::vector<std::uint32_t>> expect_, actual_;
    std::vector<std::int32_t> lastBlock_;
};

std::string
Replay::references(const ir::DerivationStep &st)
{
    const std::size_t n = cur_.size();
    const std::size_t nb = st.blocks.size();
    owner_.assign(n, -1);
    repBase_.assign(nb, 0);
    repBlock_.clear();
    for (std::size_t b = 0; b < nb; ++b) {
        const ir::DerivationBlock &blk = st.blocks[b];
        if (blk.gates.empty())
            return support::strcat("block ", b, " replaces no gate");
        for (std::uint32_t i : blk.gates) {
            if (i >= n)
                return support::strcat("block ", b, " names gate ", i,
                                       " of ", n);
            if (owner_[i] != -1)
                return support::strcat("gate ", i,
                                       " is in more than one block");
            owner_[i] = static_cast<std::int32_t>(b);
        }
        repBase_[b] = static_cast<std::uint32_t>(repBlock_.size());
        for (const ir::Gate &g : blk.replacement) {
            const std::string bad = gateProblem(g, numQubits_);
            if (!bad.empty())
                return support::strcat("block ", b, " has ", bad);
            repBlock_.push_back(static_cast<std::uint32_t>(b));
        }
    }

    used_.assign(n + repBlock_.size(), 0);
    nextRef_.clear();
    next_.clear();
    for (const ir::DerivationRun &r : st.order) {
        const std::uint64_t end = std::uint64_t{r.first} + r.count;
        std::uint64_t base = 0;
        if (r.block == ir::DerivationRun::kKept) {
            if (end > n)
                return "the order references a gate out of range";
        } else {
            if (r.block < 0 || static_cast<std::size_t>(r.block) >= nb ||
                end > st.blocks[static_cast<std::size_t>(r.block)]
                          .replacement.size())
                return "the order references a replacement out of range";
            base = n + repBase_[static_cast<std::size_t>(r.block)];
        }
        for (std::uint64_t j = r.first; j < end; ++j) {
            const auto id = static_cast<std::uint32_t>(base + j);
            if (r.block == ir::DerivationRun::kKept) {
                if (owner_[id] != -1)
                    return support::strcat("the order keeps gate ", id,
                                           ", which a block replaces");
                next_.push_back(cur_[id]);
            } else {
                next_.push_back(&st.blocks[static_cast<std::size_t>(r.block)]
                                     .replacement[j]);
            }
            if (used_[id] != 0)
                return "the order references a gate twice";
            used_[id] = 1;
            nextRef_.push_back(id);
        }
    }
    // Every reference is distinct and kept ones name unblocked gates,
    // so the count alone shows that none was dropped.
    const auto kept = static_cast<std::size_t>(
        std::count(owner_.begin(), owner_.end(), -1));
    if (nextRef_.size() != kept + repBlock_.size())
        return "the order drops a kept or a replacement gate";
    return "";
}

bool
Replay::acyclic(const std::vector<const ir::Gate *> &gates,
                const std::vector<std::uint32_t> &node,
                std::size_t num_nodes)
{
    last_.assign(static_cast<std::size_t>(numQubits_), kNone);
    present_.assign(num_nodes, 0);
    edges_.clear();
    for (std::size_t k = 0; k < gates.size(); ++k) {
        const std::uint32_t v = node[k];
        present_[v] = 1;
        for (int q : gates[k]->qubits) {
            std::uint32_t &u = last_[static_cast<std::size_t>(q)];
            if (u != kNone && u != v)
                edges_.emplace_back(u, v);
            u = v;
        }
    }
    indeg_.assign(num_nodes, 0);
    start_.assign(num_nodes + 1, 0);
    for (const auto &[u, v] : edges_) {
        ++indeg_[v];
        ++start_[u + 1];
    }
    for (std::size_t i = 0; i < num_nodes; ++i)
        start_[i + 1] += start_[i];
    adj_.resize(edges_.size());
    for (const auto &[u, v] : edges_)
        adj_[start_[u]++] = v;
    // start_[u] now ends u's edges; u's edges begin at start_[u - 1].
    queue_.clear();
    std::size_t live = 0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
        live += present_[i];
        if (present_[i] != 0 && indeg_[i] == 0)
            queue_.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t h = 0; h < queue_.size(); ++h) {
        const std::uint32_t u = queue_[h];
        for (std::uint32_t e = u == 0 ? 0 : start_[u - 1]; e < start_[u];
             ++e)
            if (--indeg_[adj_[e]] == 0)
                queue_.push_back(adj_[e]);
    }
    return queue_.size() == live;
}

bool
Replay::wireOrderHolds(const ir::DerivationStep &st)
{
    const std::size_t n = cur_.size();
    const auto wires = static_cast<std::size_t>(numQubits_);
    expect_.resize(wires);
    actual_.resize(wires);
    for (std::size_t q = 0; q < wires; ++q) {
        expect_[q].clear();
        actual_[q].clear();
    }
    lastBlock_.assign(wires, -1);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t b = owner_[i];
        for (int q : cur_[i]->qubits) {
            std::vector<std::uint32_t> &seq =
                expect_[static_cast<std::size_t>(q)];
            std::int32_t &last = lastBlock_[static_cast<std::size_t>(q)];
            if (b < 0) {
                seq.push_back(static_cast<std::uint32_t>(i));
            } else if (last != b) {
                // The block's first gate on this wire: its
                // replacement's gates on the wire, in order.
                const auto &rep =
                    st.blocks[static_cast<std::size_t>(b)].replacement;
                const std::uint32_t base =
                    static_cast<std::uint32_t>(n) +
                    repBase_[static_cast<std::size_t>(b)];
                for (std::size_t j = 0; j < rep.size(); ++j)
                    if (rep[j].actsOn(q))
                        seq.push_back(base + static_cast<std::uint32_t>(j));
            }
            last = b;
        }
    }
    for (std::size_t k = 0; k < next_.size(); ++k)
        for (int q : next_[k]->qubits)
            actual_[static_cast<std::size_t>(q)].push_back(nextRef_[k]);
    return expect_ == actual_;
}

std::string
Replay::step(const ir::DerivationStep &st, double &delta)
{
    const std::string refs = references(st);
    if (!refs.empty())
        return refs;

    const std::size_t n = cur_.size();
    const std::size_t nodes = n + st.blocks.size();
    preNode_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        preNode_[i] = owner_[i] < 0
                          ? static_cast<std::uint32_t>(i)
                          : static_cast<std::uint32_t>(n) +
                                static_cast<std::uint32_t>(owner_[i]);
    postNode_.resize(next_.size());
    for (std::size_t k = 0; k < next_.size(); ++k)
        postNode_[k] = nextRef_[k] < n
                           ? nextRef_[k]
                           : static_cast<std::uint32_t>(n) +
                                 repBlock_[nextRef_[k] - n];
    if (!acyclic(cur_, preNode_, nodes))
        return "a block is not convex in the pre-step circuit";
    if (!acyclic(next_, postNode_, nodes))
        return "a replacement is not convex in the post-step circuit";
    if (!wireOrderHolds(st))
        return "a wire's gate order is not its pre-step order with the "
               "blocks substituted";

    std::vector<const ir::Gate *> gates;
    std::vector<int> qubits;
    Complex u[kMaxBlockDim * kMaxBlockDim];
    Complex v[kMaxBlockDim * kMaxBlockDim];
    for (std::size_t b = 0; b < st.blocks.size(); ++b) {
        const ir::DerivationBlock &blk = st.blocks[b];
        gates.clear();
        qubits.clear();
        std::vector<std::uint32_t> order(blk.gates);
        std::sort(order.begin(), order.end());
        for (std::uint32_t i : order) {
            gates.push_back(cur_[i]);
            qubits.insert(qubits.end(), cur_[i]->qubits.begin(),
                          cur_[i]->qubits.end());
        }
        std::sort(qubits.begin(), qubits.end());
        qubits.erase(std::unique(qubits.begin(), qubits.end()),
                     qubits.end());
        if (qubits.size() > static_cast<std::size_t>(kMaxBlockQubits))
            return support::strcat("block ", b, " spans ", qubits.size(),
                                   " qubits (at most ", kMaxBlockQubits,
                                   " are checked locally)");
        localUnitary(gates, qubits, u);
        gates.clear();
        for (const ir::Gate &g : blk.replacement)
            gates.push_back(&g);
        localUnitary(gates, qubits, v);
        delta += linalg::phaseAlignedDistance(
            u, v, std::size_t{1} << qubits.size());
    }
    cur_.swap(next_);
    return "";
}

bool
sameGate(const ir::Gate &g, const ir::Gate &h)
{
    return g.kind == h.kind && g.qubits == h.qubits && g.params == h.params;
}

/** The certificate check proper; "" or why the derivation fails. */
std::string
replayDerivation(const ir::Circuit &a, const ir::Circuit &b,
                 const ir::Derivation &d, double &distance)
{
    distance = 0;
    if (!d.recorded())
        return "no derivation was recorded";
    const ir::DerivationStep &root = d.steps.front();
    if (!root.blocks.empty() || !root.order.empty())
        return "step 0 is not the root";
    std::vector<std::size_t> path;
    for (std::size_t s = d.best; s != 0; s = d.steps[s].parent) {
        if (s >= d.steps.size())
            return support::strcat("step ", s, " does not exist");
        if (d.steps[s].parent >= s)
            return support::strcat("step ", s,
                                   " does not descend from an earlier step");
        path.push_back(s);
    }
    Replay replay(a);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        const std::string bad = replay.step(d.steps[*it], distance);
        if (!bad.empty())
            return support::strcat("step ", *it, ": ", bad);
    }
    const std::vector<const ir::Gate *> &out = replay.gates();
    if (a.numQubits() != b.numQubits() || out.size() != b.size())
        return "the replayed circuit differs from the output";
    for (std::size_t i = 0; i < out.size(); ++i)
        if (!sameGate(*out[i], b.gate(i)))
            return support::strcat("the replayed circuit differs from the "
                                   "output at gate ", i);
    return "";
}

class CertificateChecker final : public EquivalenceChecker
{
  public:
    const CheckerInfo &
    info() const override
    {
        static const CheckerInfo kInfo{
            "certificate",
            "replay the optimizer's derivation; any width, needs guoq "
            "with threads 1"};
        return kInfo;
    }

    std::string
    checkRequest(const ir::Circuit &a, const ir::Circuit &b,
                 const VerifyRequest &req) const override
    {
        const std::string common =
            EquivalenceChecker::checkRequest(a, b, req);
        if (!common.empty())
            return common;
        if (req.derivation == nullptr)
            return "certificate verification needs the optimizer's "
                   "derivation, which only guoq with threads 1 records "
                   "(use the dense, sampling or auto method)";
        return "";
    }

    VerifyReport
    run(const ir::Circuit &a, const ir::Circuit &b,
        const VerifyRequest &req) const override
    {
        return certify(a, b, *req.derivation, req);
    }
};

} // namespace

VerifyReport
certify(const ir::Circuit &a, const ir::Circuit &b, const ir::Derivation &d,
        const VerifyRequest &req, std::string *why)
{
    support::Timer timer;
    VerifyReport report;
    report.method = "certificate";
    double sum = 0;
    const std::string bad = replayDerivation(a, b, d, sum);
    if (why != nullptr)
        *why = bad;
    report.bound = 0;
    report.confidence = 1.0;
    report.shots = 0;
    if (bad.empty()) {
        report.distanceEstimate = std::min(sum, 1.0);
        report.verdict = verdictFor(report.distanceEstimate, 0, req);
    } else {
        report.distanceEstimate = 1;
        report.verdict = Verdict::Inequivalent;
    }
    report.wallSeconds = timer.seconds();
    return report;
}

void
registerCertificateChecker(CheckerRegistry &r)
{
    r.add(std::make_unique<CertificateChecker>());
}

} // namespace verify
} // namespace guoq

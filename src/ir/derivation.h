/**
 * @file
 * A derivation: the chain of local steps an optimizer took from its
 * input to its output, recorded so that a checker can verify the
 * output by replaying the chain (verify/certificate.cc) instead of
 * re-simulating the whole circuit. Data only; nothing here checks
 * anything.
 *
 * Step 0 is the root: the input circuit, with no blocks and no order.
 * Every later step rewrites the circuit of its parent step (the
 * "pre-step" circuit) into a new one (the "post-step" circuit):
 *
 *   blocks  each a set of pre-step gate indices and the gates that
 *           replace them (a rule match, a resynthesized subcircuit, a
 *           fused 1q run);
 *   order   the post-step gate list, as runs of references either to
 *           pre-step gates that no block consumed or to a block's
 *           replacement gates.
 *
 * A parent other than the previous step lets an asynchronous
 * resynthesis accept branch from the snapshot it was launched on.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/gate.h"

namespace guoq {
namespace ir {

/** One replaced set of gates. */
struct DerivationBlock
{
    std::vector<std::uint32_t> gates; //!< pre-step gate indices
    std::vector<Gate> replacement;    //!< in post-step order
};

/**
 * A run of consecutive references in a step's post-step order:
 * pre-step gates first .. first + count - 1 when block == kKept,
 * otherwise replacement gates first .. first + count - 1 of
 * blocks[block].
 */
struct DerivationRun
{
    static constexpr std::int32_t kKept = -1;

    std::int32_t block = kKept;
    std::uint32_t first = 0;
    std::uint32_t count = 0;

    bool operator==(const DerivationRun &) const = default;
};

/** One step: its parent, its blocks and the post-step gate order. */
struct DerivationStep
{
    std::size_t parent = 0;
    std::vector<DerivationBlock> blocks;
    std::vector<DerivationRun> order;

    /** Append a reference, merging it into the last run when it
     *  continues that run. */
    void
    emit(std::int32_t block, std::uint32_t index)
    {
        if (!order.empty()) {
            DerivationRun &r = order.back();
            if (r.block == block && r.first + r.count == index) {
                ++r.count;
                return;
            }
        }
        order.push_back({block, index, 1});
    }

    /** Append all of blocks[b]'s replacement gates. */
    void
    emitBlock(std::size_t b)
    {
        const auto n = static_cast<std::uint32_t>(blocks[b].replacement.size());
        if (n > 0)
            order.push_back({static_cast<std::int32_t>(b), 0, n});
    }
};

/** The steps of one run; empty when none was recorded. */
struct Derivation
{
    std::vector<DerivationStep> steps; //!< steps[0] is the root (input)
    std::size_t best = 0;              //!< step that produced the output

    bool recorded() const { return !steps.empty(); }
};

} // namespace ir
} // namespace guoq

/**
 * @file
 * Instantiation's evaluations allocate nothing once warm. This binary
 * replaces the global operator new to count calls, so the count covers
 * every allocation an AnsatzEvaluator call makes: the residual/Jacobian
 * evaluation that Levenberg–Marquardt runs at each accepted point, and
 * the cost and gradient calls, must read 0 after the first call.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "ir/circuit.h"
#include "sim/unitary_sim.h"
#include "support/rng.h"
#include "synth/instantiate.h"

namespace {

std::atomic<long> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace guoq;

TEST(InstantiateAlloc, WarmEvaluationsAllocateNothing)
{
    // A 3q ansatz with CX and Rxx entanglers (Rxx has a free angle and
    // a two-qubit generator) against CCX.
    synth::Ansatz a = synth::initialAnsatz(3);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    synth::appendEntanglerBlock(&a, 2, 1, true);
    ir::Circuit ccx(3);
    ccx.ccx(0, 1, 2);
    synth::AnsatzEvaluator eval(a, sim::circuitUnitary(ccx));

    support::Rng rng(24);
    std::vector<std::vector<double>> points(8);
    for (std::vector<double> &x : points) {
        x.resize(static_cast<std::size_t>(a.numParams()));
        for (double &xi : x)
            xi = rng.uniform(-M_PI, M_PI);
    }
    std::vector<double> r(eval.numResiduals());
    std::vector<double> jac(r.size() * points[0].size());
    std::vector<double> grad;
    eval.costAndGrad(points[0], &grad); // sizes grad

    double sink = 0;
    const long before = g_allocations.load();
    for (const std::vector<double> &x : points) {
        sink += eval.residuals(x, r.data(), jac.data());
        sink += eval.costAndGrad(x, &grad);
        sink += eval.costAndGrad(x, nullptr);
    }
    const long allocations = g_allocations.load() - before;

    EXPECT_EQ(allocations, 0);
    EXPECT_TRUE(std::isfinite(sink));
}

TEST(InstantiateAlloc, CounterSeesAllocations)
{
    const long before = g_allocations.load();
    auto *v = new std::vector<int>(16);
    delete v;
    EXPECT_GE(g_allocations.load() - before, 2);
}

} // namespace

/**
 * @file
 * Golden end-to-end determinism tests.
 *
 * The repo's determinism contract — the whole pipeline is a pure
 * function of its seeds, and util::parallelFor produces identical
 * results at any thread count — is pinned here with committed digests:
 * an FNV-1a hash over the final assignment plus the headroom summary
 * (doubles rounded to 6 decimals via util::fmtFixed so the digest
 * hashes decimal text, not raw bits, and survives benign libm
 * differences), and the FaultPlan fingerprint (integer-only, therefore
 * exact on every platform).
 *
 * Updating the digests
 * --------------------
 * A digest change is a *behavioral* change to placement, remapping,
 * headroom accounting, trace generation, or fault scheduling.  If the
 * change is intentional:
 *
 *   1. Run this test; the failure message prints the new value.
 *      (Or: ctest -R Golden --output-on-failure)
 *   2. Replace the corresponding kGolden* constant below.
 *   3. Say why in the commit message — a digest bump with no stated
 *      reason is a regression until proven otherwise.
 *
 * If you did not intend to change pipeline behavior, do not update the
 * constant; find the nondeterminism or the unintended change instead.
 */

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/headroom.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "power/power_tree.h"
#include "util/parallel.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

// ---------------------------------------------------------------------
// Committed golden values.  See the header comment for the update
// procedure.

constexpr std::uint64_t kGoldenPipelineDigest = 0xe61fda27aed13ed4;
constexpr std::uint64_t kGoldenFaultFingerprint = 0xb2672a1be3790ec1;
// Fleet-scale remap digest (population 4096, sharded + cluster-pruned
// swap scan; see fleetDigest below).  Same update procedure as above.
constexpr std::uint64_t kGoldenFleetDigest = 0x98e83503b0275f74;
// Raw generator output, bit for bit (see generatorDigest below): DC1
// and DC3 at scale 1 and 5-minute samples, and buildFleetSpec(10240)
// at 30-minute samples, all at the preset seed.
constexpr std::uint64_t kGoldenGeneratorDc1Digest = 0x8e8d5a621cc1778d;
constexpr std::uint64_t kGoldenGeneratorDc3Digest = 0xe500d94d443f4ddc;
constexpr std::uint64_t kGoldenGeneratorFleetDigest = 0x4af37efbf7cb30ea;

// ---------------------------------------------------------------------
// FNV-1a, the same construction FaultPlan::fingerprint uses.

struct Digest {
    std::uint64_t h = 1469598103934665603ull;

    void mixByte(unsigned char b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>(v >> (8 * i)));
    }
    /** Hash the decimal text of x, not its bits: libm-robust. */
    void mix(double x, int digits = 6)
    {
        for (const char c : util::fmtFixed(x, digits))
            mixByte(static_cast<unsigned char>(c));
    }
};

workload::DatacenterSpec
goldenSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "golden";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 30;
    spec.weeks = 2;
    spec.seed = 12345;
    spec.services.push_back({workload::webFrontend(), 20});
    spec.services.push_back({workload::dbBackend(), 20});
    spec.services.push_back({workload::hadoop(), 20});
    return spec;
}

/** Generate -> place -> remap -> evaluate, digesting the outcome. */
std::uint64_t
pipelineDigest()
{
    const auto spec = goldenSpec();
    const auto dc = workload::generate(spec);
    const auto training = dc.trainingTraces();
    const auto test = dc.testTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    power::PowerTree tree(spec.topology);
    const auto oblivious = baseline::obliviousPlacement(tree, service_of);
    core::PlacementEngine engine(tree, {});
    auto optimized = engine.place(training, service_of);
    core::Remapper remapper(tree, {});
    const auto swaps = remapper.refine(optimized, training);
    const auto report =
        core::comparePlacements(tree, test, oblivious, optimized);

    Digest d;
    for (const auto rack : optimized)
        d.mix(static_cast<std::uint64_t>(rack));
    d.mix(static_cast<std::uint64_t>(swaps.size()));
    for (const auto &lc : report.levels) {
        d.mix(lc.baselineSumPeaks);
        d.mix(lc.optimizedSumPeaks);
        d.mix(lc.peakReductionFraction);
    }
    d.mix(report.extraServerFraction());
    return d.h;
}

TEST(Golden, PipelineDigestMatchesCommittedValue)
{
    const auto digest = pipelineDigest();
    EXPECT_EQ(digest, kGoldenPipelineDigest)
        << "Pipeline digest changed. If intentional, update "
           "kGoldenPipelineDigest in tests/test_golden.cc to 0x"
        << std::hex << digest
        << " and explain the behavioral change in the commit message.";
}

TEST(Golden, PipelineDigestIsIdenticalAcrossRuns)
{
    EXPECT_EQ(pipelineDigest(), pipelineDigest());
}

TEST(Golden, PipelineDigestIsThreadCountInvariant)
{
    util::setThreadCount(1);
    const auto serial = pipelineDigest();
    util::setThreadCount(4);
    const auto pooled = pipelineDigest();
    util::setThreadCount(0); // Back to the default policy.
    EXPECT_EQ(serial, pooled);
}

/**
 * Fleet-scale remap: oblivious placement of a 4096-instance mixed fleet,
 * refined by the sharded, cluster-pruned swap scan.  The digest covers
 * the refined assignment and the full swap plan (instances plus rounded
 * scores), so it pins the fleet path's determinism the way
 * pipelineDigest pins the bench-scale pipeline.
 */
std::uint64_t
fleetDigest()
{
    workload::PresetOptions options;
    options.intervalMinutes = 30;
    options.weeks = 2;
    const auto spec = workload::buildFleetSpec(4096, options);
    const auto dc = workload::generate(spec);
    const auto training = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    power::PowerTree tree(spec.topology);
    auto assignment = baseline::obliviousPlacement(tree, service_of);
    core::RemapConfig config;
    config.maxSwaps = 16;
    config.prune = core::PruneMode::kCluster;
    config.pruneKeepFraction = 0.25;
    core::Remapper remapper(tree, config);
    const auto swaps = remapper.refineInPlace(assignment, training);

    Digest d;
    for (const auto rack : assignment)
        d.mix(static_cast<std::uint64_t>(rack));
    d.mix(static_cast<std::uint64_t>(swaps.size()));
    for (const auto &swap : swaps) {
        d.mix(static_cast<std::uint64_t>(swap.instanceA));
        d.mix(static_cast<std::uint64_t>(swap.instanceB));
        d.mix(swap.scoreAtAAfter - swap.scoreAtABefore);
        d.mix(swap.scoreAtBAfter - swap.scoreAtBBefore);
    }
    return d.h;
}

TEST(Golden, FleetDigestMatchesCommittedValueAtAnyThreadCount)
{
    util::setThreadCount(1);
    const auto serial = fleetDigest();
    util::setThreadCount(4);
    const auto pooled = fleetDigest();
    util::setThreadCount(0);
    EXPECT_EQ(serial, pooled)
        << "fleet digest differs between 1 and 4 threads — the sharded "
           "scan broke the serial==parallel contract.";
    EXPECT_EQ(serial, kGoldenFleetDigest)
        << "Fleet digest changed. If intentional, update "
           "kGoldenFleetDigest in tests/test_golden.cc to 0x"
        << std::hex << serial
        << " and explain the behavioral change in the commit message.";
}

/**
 * Raw generator fingerprint: every bit of every weekly instance trace
 * and every service-activity curve, in generation order.  The pipeline
 * digests round to 6 decimals and sit behind placement; this one moves
 * when any single generated sample moves, and names the generator as
 * the layer that changed.
 */
std::uint64_t
generatorDigest(const workload::DatacenterSpec &spec)
{
    const auto dc = workload::generate(spec);
    Digest d;
    const auto mixTrace = [&](const trace::TimeSeries &t) {
        d.mix(static_cast<std::uint64_t>(t.size()));
        for (std::size_t k = 0; k < t.size(); ++k)
            d.mix(std::bit_cast<std::uint64_t>(t[k]));
    };
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        for (int w = 0; w < spec.weeks; ++w)
            mixTrace(dc.weekTrace(i, w));
    for (std::size_t s = 0; s < dc.serviceCount(); ++s)
        for (int w = 0; w < spec.weeks; ++w)
            mixTrace(dc.serviceActivity(s, w));
    return d.h;
}

TEST(Golden, GeneratorDigestMatchesCommittedValue)
{
    workload::PresetOptions fleet_options;
    fleet_options.intervalMinutes = 30;
    const struct {
        const char *name;
        workload::DatacenterSpec spec;
        std::uint64_t pinned;
    } cases[] = {
        {"DC1", workload::buildDc1Spec(), kGoldenGeneratorDc1Digest},
        {"DC3", workload::buildDc3Spec(), kGoldenGeneratorDc3Digest},
        {"fleet-10240",
         workload::buildFleetSpec(10240, fleet_options),
         kGoldenGeneratorFleetDigest},
    };
    for (const auto &c : cases) {
        const auto digest = generatorDigest(c.spec);
        EXPECT_EQ(digest, c.pinned)
            << c.name << " generator digest changed: some generated "
            << "sample moved.  If intentional, update the matching "
               "kGoldenGenerator*Digest in tests/test_golden.cc to 0x"
            << std::hex << digest
            << " and explain the behavioral change in the commit message.";
    }
}

TEST(Golden, FaultPlanFingerprintMatchesCommittedValue)
{
    // Integer-only RNG draws: exact on every platform and toolchain.
    const auto plan = fault::FaultPlan::build(
        7, fault::faultProfile("harsh"), {120, 336});
    EXPECT_EQ(plan.fingerprint(), kGoldenFaultFingerprint)
        << "FaultPlan schedule changed. If intentional, update "
           "kGoldenFaultFingerprint in tests/test_golden.cc to 0x"
        << std::hex << plan.fingerprint()
        << " and explain the scheduling change in the commit message.";
}

} // namespace

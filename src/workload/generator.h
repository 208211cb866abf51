#ifndef SOSIM_WORKLOAD_GENERATOR_H
#define SOSIM_WORKLOAD_GENERATOR_H

/**
 * @file
 * Synthetic datacenter trace generation.
 *
 * The generator is the repo's substitute for production power telemetry
 * (see DESIGN.md section 2): given a DatacenterSpec it produces, for every
 * service instance, `weeks` weekly power traces plus per-service activity
 * curves, all as a pure function of the spec's seed.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "power/power_tree.h"
#include "trace/time_series.h"
#include "workload/service_profile.h"

namespace sosim::workload {

/** One service and how many instances of it the datacenter hosts. */
struct ServiceDeployment {
    ServiceProfile profile;
    int instanceCount = 0;
};

/** Complete description of a synthetic datacenter. */
struct DatacenterSpec {
    std::string name = "dc";
    power::TopologySpec topology;
    std::vector<ServiceDeployment> services;
    /** Weeks of trace to generate; the last week is the test week. */
    int weeks = 3;
    /** Trace sampling interval in minutes; must divide a week evenly. */
    int intervalMinutes = 5;
    /** Master seed; the whole generation is a pure function of it. */
    std::uint64_t seed = 1;
    /** Week-to-week amplitude wobble (stddev of a weekly scale factor). */
    double weekScaleStd = 0.02;
    /** Week-to-week phase drift (stddev, hours). */
    double weekPhaseStd = 0.15;
    /**
     * Deterministic week-over-week traffic growth: week w's activity is
     * additionally scaled by (1 + weeklyGrowth)^w.  Models the secular
     * load growth that motivates proactive capacity planning.
     */
    double weeklyGrowth = 0.0;

    /** Total instances across all services. */
    int totalInstances() const;
};

/** Per-instance generation output. */
struct InstanceInfo {
    /** Index into the spec's services vector. */
    std::size_t serviceIndex = 0;
    /** Popularity weight (mean 1 across the service's instances). */
    double popularity = 1.0;
    /** Amplitude jitter multiplier. */
    double amplitude = 1.0;
    /** Phase shift in hours relative to the service activity curve. */
    double phaseHours = 0.0;
    /** One power trace per generated week. */
    std::vector<trace::TimeSeries> weeklyPower;
};

/**
 * A fully generated datacenter: instances with weekly power traces and
 * per-service nominal activity curves.
 */
class GeneratedDatacenter
{
  public:
    GeneratedDatacenter(DatacenterSpec spec,
                        std::vector<InstanceInfo> instances,
                        std::vector<std::vector<trace::TimeSeries>>
                            service_activity);

    const DatacenterSpec &spec() const { return spec_; }

    std::size_t instanceCount() const { return instances_.size(); }

    const InstanceInfo &instance(std::size_t i) const;

    std::size_t serviceCount() const { return spec_.services.size(); }

    const ServiceProfile &serviceProfile(std::size_t s) const;

    /** Index of the service that instance i belongs to. */
    std::size_t serviceOf(std::size_t i) const;

    /** Indices of all instances of service s. */
    std::vector<std::size_t> instancesOfService(std::size_t s) const;

    /** Indices of all instances whose service class matches. */
    std::vector<std::size_t> instancesOfClass(ServiceClass klass) const;

    /**
     * The paper's averaged I-traces (Eq. 4): the element-wise mean of all
     * weeks except the last.  These are the training inputs for placement
     * and policy learning.
     */
    std::vector<trace::TimeSeries> trainingTraces() const;

    /** The held-out final week of every instance (evaluation inputs). */
    std::vector<trace::TimeSeries> testTraces() const;

    /** Power trace of one instance for one week. */
    const trace::TimeSeries &weekTrace(std::size_t i, int week) const &;

    /**
     * Move one instance-week trace out of an expiring datacenter
     * (`std::move(dc).weekTrace(i, w)`), leaving that slot empty; for
     * callers that hand every trace on and drop the rest.
     */
    trace::TimeSeries weekTrace(std::size_t i, int week) &&;

    /**
     * Nominal (jitter-free, popularity-1) activity curve of service s in
     * a given week, in [0, 1].  The reshaping runtime uses the LC
     * services' activity as the traffic signal.
     */
    const trace::TimeSeries &serviceActivity(std::size_t s, int week) const;

  private:
    DatacenterSpec spec_;
    std::vector<InstanceInfo> instances_;
    /** service_activity_[s][w]: activity of service s in week w. */
    std::vector<std::vector<trace::TimeSeries>> serviceActivity_;
};

/**
 * Generate a datacenter from a specification.  Deterministic: equal specs
 * (including seed) produce identical traces.
 */
GeneratedDatacenter generate(const DatacenterSpec &spec);

/**
 * The service-independent activity curve value for a profile.
 *
 * Exposed for tests: evaluates the diurnal bump/base/weekend model at a
 * given minute of the week with an explicit phase shift.
 *
 * @param profile      Service shape parameters.
 * @param minute_of_week Minute within [0, kMinutesPerWeek).
 * @param phase_hours  Additional phase shift in hours.
 * @return Activity in [0, 1].
 */
double activityAt(const ServiceProfile &profile, int minute_of_week,
                  double phase_hours = 0.0);

} // namespace sosim::workload

#endif // SOSIM_WORKLOAD_GENERATOR_H

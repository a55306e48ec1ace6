/**
 * @file
 * Host CPU budget for sizing worker threads.
 */

#ifndef MEDIAWORM_SIM_CPUS_HH
#define MEDIAWORM_SIM_CPUS_HH

namespace mediaworm::sim {

/**
 * CPUs the calling thread may run on: the size of its affinity mask,
 * so `taskset` and cgroup cpusets shrink it, unlike
 * std::thread::hardware_concurrency(), which counts every host CPU.
 * CPU quotas (cgroup `cpu.max`) leave the mask full and are not seen.
 * Falls back to hardware_concurrency() where the mask is unavailable;
 * never less than 1.
 */
int availableCpus();

} // namespace mediaworm::sim

#endif // MEDIAWORM_SIM_CPUS_HH

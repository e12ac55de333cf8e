/**
 * @file
 * Whole-system checkpoint save/restore.
 *
 * StateIO is befriended by every stateful component and serialises the
 * complete behavioural state of a CmpSystem: workload streams, cores,
 * L1s, L2 banks (directory, TBEs, bank controllers), memory controllers,
 * every router/NI/link of the network, the bank-aware policy and its
 * estimator, the RCA fabric, the fault-injector site streams, the
 * global packet-id streams, and the engines' idle-elision active sets.
 *
 * Contract: a checkpoint is taken at the warm-up boundary (immediately
 * after CmpSystem::warmupEnd()) and restored into a freshly constructed,
 * never-run CmpSystem built from the same scenario/seed configuration.
 * The restored run then produces stats bit-identical to the
 * uninterrupted run at any --threads and with elision on or off.
 * Observer-only state (stats groups, probes, samplers, profiler) is NOT
 * serialised: at the warm boundary all stats are zero and the probes
 * re-baseline from the restored plain counters via ProbeHub::onReset.
 *
 * Each component has one io() that names its fields once. A Saver
 * runs it to write and a Loader to read, so the two directions cannot
 * drift apart; the few genuinely one-sided steps (refusing
 * non-serialisable state, re-binding a bank completion, rebuilding the
 * router's derived masks, mapping the engine flags) sit under
 * `if constexpr (Ar::loading)` or its negation.
 *
 * Systems running with validation enabled cannot be checkpointed or
 * restored (the validation hub's census state is not serialised).
 */

#ifndef STACKNOC_SNAPSHOT_STATE_IO_HH
#define STACKNOC_SNAPSHOT_STATE_IO_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "snapshot/serialize.hh"

namespace stacknoc::system {
class CmpSystem;
} // namespace stacknoc::system

namespace stacknoc::cpu {
class Core;
} // namespace stacknoc::cpu

namespace stacknoc::coherence {
class L1Cache;
class L2Bank;
} // namespace stacknoc::coherence

namespace stacknoc::mem {
class BankController;
class MemoryController;
} // namespace stacknoc::mem

namespace stacknoc::noc {
class NetworkInterface;
class Router;
struct Link;
} // namespace stacknoc::noc

namespace stacknoc::cache {
class TagArray;
} // namespace stacknoc::cache

namespace stacknoc::workload {
class SyntheticStream;
} // namespace stacknoc::workload

namespace stacknoc::sttnoc {
class BankAwarePolicy;
class RcaFabric;
} // namespace stacknoc::sttnoc

namespace stacknoc::fault {
class FaultInjector;
} // namespace stacknoc::fault

namespace stacknoc::engine {
class ExecutionEngine;
} // namespace stacknoc::engine

namespace stacknoc::snapshot {

class Refs;

/** @p T is @p U, or const @p U on the save pass. */
template <class T, class U>
concept Of = std::same_as<std::remove_const_t<T>, U>;

/**
 * The single (friended) entry point for component state serialisation.
 * All methods are static; the class exists only so components can grant
 * access with one friend declaration.
 */
class StateIO
{
  public:
    /**
     * Serialise the complete behavioural state of @p sys into @p s.
     * @throws SnapshotError when the system holds non-serialisable
     * state (validation enabled, or a test-only callback completion).
     */
    static void save(const system::CmpSystem &sys, Saver &s);

    /**
     * Restore @p sys — freshly constructed from the same configuration,
     * never run — from @p l. The caller completes the restore with
     * CmpSystem::warmupEnd() (probe re-baseline + measurement start).
     * @throws SnapshotError on any structural mismatch or truncation.
     */
    static void load(system::CmpSystem &sys, Loader &l);

    /** Implementation behind snapshot::statsDigest (needs friendship). */
    static std::uint64_t digest(const system::CmpSystem &sys);

  private:
    // One io() per component: its field list, written once and run by
    // a Saver (T may be const) or a Loader. Private static members (not
    // file-local helpers) because friendship does not transfer to free
    // functions. Parts holding shared packets or completion flags also
    // take the pass's Refs table.
    template <class Ar, Of<system::CmpSystem> T>
    static void io(Ar &ar, T &sys);
    template <class Ar, Of<workload::SyntheticStream> T>
    static void io(Ar &ar, T &st);
    template <class Ar, Of<cpu::Core> T>
    static void io(Ar &ar, Refs &refs, T &core);
    template <class Ar, Of<coherence::L1Cache> T>
    static void io(Ar &ar, Refs &refs, T &l1);
    template <class Ar, Of<coherence::L2Bank> T>
    static void io(Ar &ar, Refs &refs, T &bank);
    template <class Ar, Of<mem::BankController> T, class Owner>
    static void io(Ar &ar, T &ctrl, Owner &owner);
    template <class Ar, Of<mem::MemoryController> T>
    static void io(Ar &ar, Refs &refs, T &mc);
    template <class Ar, Of<cache::TagArray> T>
    static void io(Ar &ar, T &tags);
    template <class Ar, Of<noc::Link> T>
    static void io(Ar &ar, Refs &refs, T &link);
    template <class Ar, Of<noc::Router> T>
    static void io(Ar &ar, Refs &refs, T &r);
    template <class Ar, Of<noc::NetworkInterface> T>
    static void io(Ar &ar, Refs &refs, T &ni);
    template <class Ar, Of<sttnoc::BankAwarePolicy> T>
    static void io(Ar &ar, T &p);
    template <class Ar, Of<sttnoc::RcaFabric> T>
    static void io(Ar &ar, T &f);
    template <class Ar, Of<fault::FaultInjector> T>
    static void io(Ar &ar, T &fi);
    template <class Ar>
    static void io(Ar &ar, engine::ExecutionEngine &eng,
                   std::size_t components);
};

/**
 * FNV-1a digest over every stats group of @p sys (counters, averages
 * with bit-exact sums, distributions, histograms) plus the per-core
 * committed-instruction counts and the current cycle. Two runs are
 * "bit-identical" exactly when these digests match; interval/heatmap
 * snapshots and wall-clock telemetry are deliberately excluded.
 */
std::uint64_t statsDigest(const system::CmpSystem &sys);

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_STATE_IO_HH

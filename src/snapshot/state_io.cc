#include "snapshot/state_io.hh"

#include <bit>
#include <vector>

#include "engine/sequential_engine.hh"
#include "engine/sharded_engine.hh"
#include "snapshot/context.hh"
#include "system/cmp_system.hh"

namespace stacknoc::snapshot {

namespace {

/** A flit by value; its packet goes through the shared table. */
template <class Ar, class F>
void
flit(Ar &ar, Refs &refs, F &f)
{
    refs.packet(ar, f.pkt);
    ar.u32(f.seq);
    ar.u64(f.arrivedAt);
}

} // namespace

// ---------------------------------------------------------------- workload

template <class Ar, Of<workload::SyntheticStream> T>
void
StateIO::io(Ar &ar, T &st)
{
    for (auto &w : st.rng_.s_)
        ar.u64(w);
    ar.u64(st.memOps_);
    ar.u64(st.misses_);
    ar.u32(st.burstRemaining_);
    ar.u32(st.bankRun_);
    ar.u32(st.hotBank_);
    ar.seq(st.bankCursor_, [&](auto &bank, auto &cursor) {
        ar.u32(bank);
        ar.u64(cursor);
    });
    ar.count(st.history_.size(), "stream history rings");
    for (auto &ring : st.history_)
        ar.seq(ring, [&](auto &a) { ar.u64(a); });
    ar.u64(st.historyIdx_);
}

// -------------------------------------------------------------------- cpu

template <class Ar, Of<cpu::Core> T>
void
StateIO::io(Ar &ar, Refs &refs, T &core)
{
    ar.seq(core.rob_, [&](auto &e) {
        ar.b(e.op.isMem);
        ar.b(e.op.isWrite);
        ar.u64(e.op.addr);
        ar.b(e.op.l2Hit);
        ar.b(e.op.dependsOnPrev);
        ar.b(e.issued);
        refs.flag(ar, e.done);
    });
    ar.u64(core.issueCursor_);
    refs.flag(ar, core.lastMemDone_);
    ar.u64(core.committed_);
}

// -------------------------------------------------------------- coherence

template <class Ar, Of<coherence::L1Cache> T>
void
StateIO::io(Ar &ar, Refs &refs, T &l1)
{
    const auto completion = [&](auto &c) {
        if constexpr (!Ar::loading) {
            if (c.fn)
                throw SnapshotError(
                    "non-serialisable L1 completion callback (test-only "
                    "std::function path cannot be checkpointed)");
        }
        refs.flag(ar, c.flag);
    };

    io(ar, l1.tags_);
    ar.seq(l1.mshrs_, [&](auto &addr, auto &m) {
        ar.u64(addr);
        ar.b(m.isWrite);
        ar.u64(m.startedAt);
        completion(m.onDone);
    });
    ar.seq(l1.pendingPutM_, [&](auto &addr) { ar.u64(addr); });
    ar.seq(l1.delayed_, [&](auto &d) {
        ar.u64(d.first);
        completion(d.second);
    });
}

template <class Ar, Of<coherence::L2Bank> T>
void
StateIO::io(Ar &ar, Refs &refs, T &bank)
{
    ar.u32(bank.admittedRequests_);
    ar.u32(bank.admittedWrites_);
    ar.u64(bank.lastNackedEpisode_);
    for (auto &w : bank.rng_.s_)
        ar.u64(w);
    ar.seq(bank.dir_, [&](auto &addr, auto &d) {
        ar.u64(addr);
        ar.u8(d.state);
        ar.u64(d.sharers);
        ar.u32(d.owner);
    });
    ar.seq(bank.tbes_, [&](auto &addr, auto &t) {
        ar.u64(addr);
        ar.u8(t.kind);
        ar.u32(t.requester);
        ar.b(t.l2Hit);
        ar.b(t.upgrade);
        ar.u8(t.phase);
        ar.u32(t.pendingAcks);
        ar.u32(t.recallOwner);
        ar.u8(t.grant);
        ar.seq(t.blocked, [&](auto &pkt) { refs.packet(ar, pkt); });
        ar.u64(t.pktId);
        ar.u8(t.pktCls);
        ar.u64(t.arrivedAt);
    });
    ar.present(bank.tags_, [&](auto &tags) { io(ar, tags); },
               "L2 real-tags mode");
    io(ar, bank.ctrl_, bank);
}

// -------------------------------------------------------------------- mem

template <class Ar, Of<mem::BankController> T, class Owner>
void
StateIO::io(Ar &ar, T &ctrl, Owner &owner)
{
    const auto request = [&](auto &req) {
        ar.b(req.isWrite);
        ar.u64(req.addr);
        ar.u64(req.enqueuedAt);
        ar.u64(req.tracePktId);
        ar.u8(req.traceCls);
        // The production completion is always the owning L2Bank's
        // respondAndFinish bound to req.addr; only its presence travels,
        // and loading re-forms the lambda.
        bool bound = static_cast<bool>(req.onDone);
        ar.b(bound);
        if constexpr (Ar::loading) {
            if (bound) {
                coherence::L2Bank *bank = &owner;
                const BlockAddr addr = req.addr;
                req.onDone = [bank, addr](Cycle t) {
                    bank->respondAndFinish(addr, t);
                };
            }
        }
    };

    ar.u64(ctrl.bank_.busyUntil_);
    ar.b(ctrl.bank_.currentIsWrite_);
    ar.u64(ctrl.bank_.readsTotal_);
    ar.u64(ctrl.bank_.writesTotal_);
    ar.seq(ctrl.queue_, request);
    ar.present(ctrl.current_, [&](auto &inf) {
        request(inf.req);
        ar.u64(inf.doneAt);
        ar.u32(inf.failures);
    });
    ar.seq(ctrl.buffer_, [&](auto &bw) {
        ar.u64(bw.addr);
        ar.b(bw.draining);
    });
    ar.present(ctrl.drainDoneAt_, [&](auto &at) { ar.u64(at); });
    ar.seq(ctrl.delayed_, [&](auto &dd) {
        ar.u64(dd.at);
        request(dd.req);
    });
    ar.u64(ctrl.lastArrival_);
    ar.b(ctrl.lastWasWrite_);
    ar.u32(ctrl.drainFailures_);
    ar.b(ctrl.retryActive_);
    ar.u64(ctrl.retryEpisodes_);
    ar.u64(ctrl.retryRoundsTotal_);
}

template <class Ar, Of<mem::MemoryController> T>
void
StateIO::io(Ar &ar, Refs &refs, T &mc)
{
    ar.seq(mc.queue_, [&](auto &pkt) { refs.packet(ar, pkt); });
    ar.seq(mc.inflight_, [&](auto &a) {
        refs.packet(ar, a.pkt);
        ar.u64(a.doneAt);
    });
}

// ------------------------------------------------------------------ cache

template <class Ar, Of<cache::TagArray> T>
void
StateIO::io(Ar &ar, T &tags)
{
    ar.count(tags.numSets_, "tag array sets");
    ar.count(tags.ways_, "tag array ways");
    ar.u32(tags.validCount_);
    ar.u64(tags.useClock_);
    for (auto &e : tags.entries_) {
        ar.u64(e.addr);
        ar.b(e.valid);
        ar.b(e.dirty);
        ar.u8(e.state);
        ar.b(e.pinned);
        ar.u64(e.lastUse);
    }
}

// -------------------------------------------------------------------- noc

template <class Ar, Of<noc::Link> T>
void
StateIO::io(Ar &ar, Refs &refs, T &link)
{
    // Loading deliberately calls no wakeTarget(): the engine active set
    // travels in the checkpoint, and the pending-signal bytes are
    // restored per owner.
    if constexpr (!Ar::loading) {
        if (!link.data.staged_.empty() || !link.credit.staged_.empty())
            throw SnapshotError("channel has uncommitted staged values "
                                "(checkpoint must be taken between "
                                "cycles)");
    }
    ar.seq(link.data.queue_, [&](auto &e) {
        ar.u64(e.first);
        flit(ar, refs, e.second.flit);
        ar.u32(e.second.vc);
    });
    ar.seq(link.credit.queue_, [&](auto &e) {
        ar.u64(e.first);
        ar.u32(e.second.vc);
    });
}

template <class Ar, Of<noc::Router> T>
void
StateIO::io(Ar &ar, Refs &refs, T &r)
{
    for (auto &ip : r.in_) {
        ar.count(ip.vcs.size(), "router input VCs");
        for (auto &vc : ip.vcs) {
            ar.seq(vc.buffer, [&](auto &f) { flit(ar, refs, f); });
            ar.u8(vc.status);
            ar.u8(vc.outDir);
            ar.u32(vc.outVc);
            ar.u64(vc.vaDoneAt);
        }
        ar.u32(ip.rrSaVc);
    }
    for (auto &op : r.out_) {
        ar.count(op.credits.size(), "router output VCs");
        for (auto &c : op.credits)
            ar.u32(c);
        for (auto &&busy : op.vcBusy)
            ar.b(busy);
        ar.u32(op.rrVa);
        ar.u32(op.rrSa);
    }
    for (auto &p : r.dataPending_)
        ar.u8(p);
    for (auto &p : r.creditPending_)
        ar.u8(p);
    ar.u64(r.flitsSwitchedTotal_);
    ar.u64(r.flitsBufferedTotal_);

    if constexpr (Ar::loading) {
        // Canonically recompute the derived pipeline-state masks, counts
        // and occupancy mirrors. The Idle slots of stateMask/stateCount
        // carry history-dependent values in a live run, but they are
        // never read (see router.hh), so the canonical rebuild is
        // behaviourally exact.
        r.stateCount_ = {};
        r.bufferedTotal_ = 0;
        r.localCongestion_ = 0;
        for (int p = 0; p < noc::kNumDirs; ++p) {
            auto &ip = r.in_[static_cast<std::size_t>(p)];
            ip.stateMask = {};
            for (const auto &vc : ip.vcs) {
                const auto st = static_cast<std::size_t>(vc.status);
                ip.stateMask[st] |= std::uint64_t{1} << vc.idx;
                ++r.stateCount_[st];
                const int held = static_cast<int>(vc.buffer.size());
                r.bufferedTotal_ += held;
                if (p != static_cast<int>(noc::Dir::Local))
                    r.localCongestion_ += held;
            }
        }
    }
}

template <class Ar, Of<noc::NetworkInterface> T>
void
StateIO::io(Ar &ar, Refs &refs, T &ni)
{
    ar.seq(ni.injectQueue_, [&](auto &pkt) { refs.packet(ar, pkt); });
    ar.count(ni.injVcs_.size(), "NI injection VCs");
    for (auto &vc : ni.injVcs_) {
        refs.packet(ar, vc.pkt);
        ar.u32(vc.nextSeq);
        ar.u32(vc.credits);
    }
    ar.count(ni.ejectVcs_.size(), "NI ejection VCs");
    for (auto &vc : ni.ejectVcs_) {
        ar.seq(vc.buffer, [&](auto &f) { flit(ar, refs, f); });
        ar.b(vc.committed);
        refs.packet(ar, vc.committedPkt);
        ar.b(vc.crcClean);
        ar.b(vc.dropping);
        ar.u32(vc.retxAttempts);
        ar.u64(vc.retxHoldUntil);
    }
    ar.u32(ni.rrInjVc_);
    ar.u8(ni.dataPending_);
    ar.u8(ni.creditPending_);
    ar.u64(ni.flitsRetransmittedTotal_);
}

// ----------------------------------------------------------------- sttnoc

template <class Ar, Of<sttnoc::BankAwarePolicy> T>
void
StateIO::io(Ar &ar, T &p)
{
    ar.count(p.busyUntil_.size(), "policy bank count");
    for (auto &c : p.busyUntil_)
        ar.u64(c);
    for (auto &c : p.holdMargin_)
        ar.u64(c);
    for (auto &v : p.holdCyclesByBank_)
        ar.u64(v);

    auto *wb = dynamic_cast<sttnoc::WindowEstimator *>(p.estimator_.get());
    ar.present(wb, [&](auto &est) {
        ar.count(est.state_.size(), "WB estimator children");
        for (auto &cs : est.state_) {
            ar.u64(cs.forwarded);
            ar.b(cs.probeOutstanding);
            ar.u16(cs.stamp);
            ar.u64(cs.sentAt);
            ar.u64(cs.congestion);
            ar.u64(cs.updatedAt);
        }
    }, "estimator kind");
}

template <class Ar, Of<sttnoc::RcaFabric> T>
void
StateIO::io(Ar &ar, T &f)
{
    ar.count(f.prev_.size(), "RCA fabric node count");
    for (auto &v : f.prev_)
        ar.u32(v);
    for (auto &v : f.next_)
        ar.u32(v);
    for (auto &v : f.snapshot_)
        ar.u32(v);
    ar.b(f.prevNonzero_);
    ar.b(f.nextNonzero_);
    ar.b(f.snapNonzero_);
}

// ------------------------------------------------------------------ fault

template <class Ar, Of<fault::FaultInjector> T>
void
StateIO::io(Ar &ar, T &fi)
{
    ar.count(fi.bankStreams_.size(), "fault bank streams");
    for (auto &st : fi.bankStreams_)
        ar.u64(st.state_);
    ar.count(fi.niStreams_.size(), "fault NI streams");
    for (auto &st : fi.niStreams_)
        ar.u64(st.state_);
}

// ----------------------------------------------------------------- engine

template <class Ar>
void
StateIO::io(Ar &ar, engine::ExecutionEngine &eng, std::size_t components)
{
    // Active flags travel in canonical schedule-ordinal order, whichever
    // engine is attached. An unscheduled (never-run) engine saves
    // all-awake. Loading applies the flags exactly: a spurious wake is
    // harmless (quiescent ticks are no-ops) but a missed wake diverges.
    // Engines that ignore the flags (elision off) tick everything anyway.
    std::vector<std::uint8_t> flags(components, 1);
    const auto eachActive = [&](auto &&fn) {
        if (auto *seq = dynamic_cast<engine::SequentialEngine *>(&eng)) {
            if constexpr (Ar::loading)
                seq->ensureSchedule();
            if (seq->scheduleBuilt_) {
                for (std::size_t i = 0; i < seq->order_.size(); ++i)
                    fn(seq->order_[i].ordinal, seq->active_[i]);
            }
        } else if (auto *sh = dynamic_cast<engine::ShardedParallelEngine *>(
                       &eng)) {
            for (std::size_t s = 0; s < sh->plan_.shards.size(); ++s) {
                const auto &items = sh->plan_.shards[s];
                auto &st = *sh->shard_state_[s];
                for (std::size_t i = 0; i < items.size(); ++i)
                    fn(items[i].ordinal, st.active[i]);
            }
            for (std::size_t i = 0; i < sh->plan_.serial.size(); ++i)
                fn(sh->plan_.serial[i].ordinal, sh->serial_active_[i]);
        }
    };

    if constexpr (!Ar::loading)
        eachActive([&](auto ordinal, auto a) { flags.at(ordinal) = a; });
    ar.count(components, "engine component count");
    for (auto &f : flags)
        ar.u8(f);
    if constexpr (Ar::loading)
        eachActive([&](auto ordinal, auto &a) { a = flags.at(ordinal); });
}

// ----------------------------------------------------------- whole system

template <class Ar, Of<system::CmpSystem> T>
void
StateIO::io(Ar &ar, T &sys)
{
    if (sys.validation_)
        throw SnapshotError(std::string("cannot ")
                            + (Ar::loading ? "restore into" : "checkpoint")
                            + " a system with validation enabled (census "
                              "state is not serialised)");

    std::vector<std::pair<std::uint32_t, std::uint64_t>> idStreams;
    if constexpr (!Ar::loading)
        idStreams = noc::savePacketIdStreams();
    ar.seq(idStreams, [&](auto &e) {
        ar.u32(e.first);
        ar.u64(e.second);
    });
    if constexpr (Ar::loading)
        noc::restorePacketIdStreams(idStreams);

    ar.u64(sys.sim_.now_);

    Refs refs;
    for (const auto &st : sys.streams_)
        io(ar, *st);
    for (const auto &core : sys.cores_)
        io(ar, refs, *core);
    for (const auto &l1 : sys.l1s_)
        io(ar, refs, *l1);
    for (const auto &bank : sys.banks_)
        io(ar, refs, *bank);
    for (const auto &mc : sys.mcs_)
        io(ar, refs, *mc);

    auto &net = *sys.net_;
    const int nodes = sys.shape_.totalNodes();
    for (NodeId n = 0; n < nodes; ++n)
        io(ar, refs, net.router(n));
    for (NodeId n = 0; n < nodes; ++n)
        io(ar, refs, net.ni(n));
    for (NodeId n = 0; n < nodes; ++n) {
        for (int d = 0; d < noc::kNumDirs; ++d) {
            if (auto *lk = net.topo_.linkOut(n, static_cast<noc::Dir>(d)))
                io(ar, refs, *lk);
        }
    }
    for (const auto &lk : net.niLinks_)
        io(ar, refs, *lk);

    const auto part = [&](auto &ptr, const char *what) {
        ar.present(ptr, [&](auto &x) { io(ar, x); }, what);
    };
    part(sys.bankAwarePolicy_, "bank-aware policy presence");
    part(sys.rcaFabric_, "RCA fabric presence");
    part(sys.faults_, "fault injector presence");

    io(ar, *sys.engine_, sys.sim_.componentCount());

    if constexpr (Ar::loading) {
        if (!ar.atEnd())
            throw SnapshotError("trailing bytes after checkpoint payload");
    }
}

void
StateIO::save(const system::CmpSystem &sys, Saver &s)
{
    io(s, sys);
}

void
StateIO::load(system::CmpSystem &sys, Loader &l)
{
    io(l, sys);
}

// ----------------------------------------------------------------- digest

std::uint64_t
StateIO::digest(const system::CmpSystem &sys)
{
    std::uint64_t h = kFnvOffset;
    const auto mix64 = [&h](std::uint64_t v) {
        h = fnv1a(&v, sizeof v, h);
    };
    const auto mixStr = [&h](const std::string &str) { h = fnv1a(str, h); };
    const auto mixGroup = [&](const stats::Group &g) {
        mixStr(g.name());
        for (const auto &[name, c] : g.allCounters()) {
            mixStr(name);
            mix64(c.value());
        }
        for (const auto &[name, a] : g.allAverages()) {
            mixStr(name);
            mix64(a.count());
            mix64(std::bit_cast<std::uint64_t>(a.sum()));
        }
        for (const auto &[name, d] : g.allDistributions()) {
            mixStr(name);
            mix64(d.total());
            for (std::size_t i = 0; i < d.numBins(); ++i)
                mix64(d.binCount(i));
        }
        for (const auto &[name, hist] : g.allHistograms()) {
            mixStr(name);
            mix64(hist.count());
            mix64(hist.sum());
            mix64(hist.minValue());
            mix64(hist.maxValue());
            for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i)
                mix64(hist.bucketCount(i));
        }
    };

    mix64(sys.sim_.now_);
    for (const auto &core : sys.cores_)
        mix64(core->committed());
    mixGroup(sys.cacheStats_);
    mixGroup(sys.coreStats_);
    mixGroup(sys.memStats_);
    mixGroup(sys.net_->stats());
    if (sys.bankAwarePolicy_)
        mixGroup(sys.bankAwarePolicy_->stats());
    if (sys.faults_)
        mixGroup(sys.faults_->stats());
    return h;
}

std::uint64_t
statsDigest(const system::CmpSystem &sys)
{
    return StateIO::digest(sys);
}

} // namespace stacknoc::snapshot

/**
 * @file
 * Cross-reference table shared by every component's io() in one pass.
 *
 * Two kinds of state are aliased between components and must keep their
 * sharing structure across a checkpoint round trip:
 *
 *  - PacketPtr: one Packet may sit in several places at once (a router
 *    VC buffer flit-by-flit, a Tbe blocked queue, an NI committedPkt).
 *    The save pass writes each distinct Packet once (first encounter)
 *    and refers back by table index afterwards; the load pass rebuilds
 *    the exact same shared_ptr graph.
 *
 *  - std::shared_ptr<bool> completion flags: a Core ROB entry and the
 *    L1 MSHR that will complete it point at the same bool (and
 *    lastMemDone_ may alias it again). Same first-encounter scheme.
 *
 * Both directions run the same code: Refs::packet(ar, pkt) writes or
 * reads a pointer depending on the archive, and the Packet field list
 * below is the only one.
 */

#ifndef STACKNOC_SNAPSHOT_CONTEXT_HH
#define STACKNOC_SNAPSHOT_CONTEXT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "noc/packet.hh"
#include "snapshot/serialize.hh"

namespace stacknoc::snapshot {

namespace tag {
constexpr std::uint8_t kNull = 0; //!< empty pointer
constexpr std::uint8_t kNew = 1;  //!< body follows; assign next index
constexpr std::uint8_t kRef = 2;  //!< u32 index of an earlier kNew
} // namespace tag

/** The shared-pointer tables of one save or load pass. */
class Refs
{
  public:
    template <class Ar, class P>
    void
    packet(Ar &ar, P &pkt)
    {
        shared(ar, pkt, packets_, "packet", [&ar](noc::Packet &p) {
            ar.u64(p.id);
            ar.u8(p.cls);
            ar.u32(p.src);
            ar.u32(p.dest);
            ar.u32(p.numFlits);
            ar.u64(p.addr);
            ar.u32(p.destBank);
            ar.u8(p.info.kind);
            ar.u8(p.info.flags);
            ar.u16(p.info.aux);
            ar.u32(p.info.origin);
            ar.u64(p.createdAt);
            ar.u64(p.injectedAt);
            ar.u64(p.ejectedAt);
            ar.u16(p.probeStamp);
            ar.u32(p.probeParent);
            ar.u64(p.firstHeldAt);
        });
    }

    template <class Ar, class P>
    void
    flag(Ar &ar, P &flag)
    {
        shared(ar, flag, flags_, "flag", [&ar](bool &v) { ar.b(v); });
    }

  private:
    /** Save side: pointee -> index. Load side: index -> pointer. */
    template <class T>
    struct Table
    {
        std::map<const T *, std::uint32_t> ids;
        std::vector<std::shared_ptr<T>> seen;
    };

    template <class Ar, class P, class T, class Body>
    static void
    shared(Ar &ar, P &ptr, Table<T> &table, const char *what, Body body)
    {
        std::uint8_t kind = tag::kNull;
        std::uint32_t idx = 0;
        if constexpr (!Ar::loading) {
            if (ptr) {
                const auto [it, fresh] = table.ids.try_emplace(
                    ptr.get(), static_cast<std::uint32_t>(table.ids.size()));
                kind = fresh ? tag::kNew : tag::kRef;
                idx = it->second;
            }
        }
        ar.u8(kind);
        switch (kind) {
          case tag::kNull:
            if constexpr (Ar::loading)
                ptr = nullptr;
            return;
          case tag::kRef:
            ar.u32(idx);
            if constexpr (Ar::loading) {
                if (idx >= table.seen.size())
                    throw SnapshotError(std::string("bad ") + what
                                        + " back-reference");
                ptr = table.seen[idx];
            }
            return;
          case tag::kNew:
            if constexpr (Ar::loading)
                table.seen.push_back(ptr = std::make_shared<T>());
            body(*ptr);
            return;
          default:
            throw SnapshotError(std::string("bad ") + what + " tag");
        }
    }

    Table<noc::Packet> packets_;
    Table<bool> flags_;
};

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_CONTEXT_HH

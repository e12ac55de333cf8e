/**
 * @file
 * The two-layer stacked mesh topology: port directions, link objects, and
 * the wiring between routers.
 */

#ifndef STACKNOC_NOC_TOPOLOGY_HH
#define STACKNOC_NOC_TOPOLOGY_HH

#include <array>
#include <memory>
#include <vector>

#include "common/geometry.hh"
#include "common/types.hh"
#include "sim/channel.hh"
#include "noc/packet.hh"

namespace stacknoc::noc {

/** Router port directions for the 3D mesh (plus the local NI port). */
enum class Dir : int {
    Local = 0,
    East,
    West,
    North,
    South,
    Up,   //!< toward layer-1 (core layer); used by cache-layer routers
    Down, //!< toward layer+1 (cache layer); used by core-layer routers
    NumDirs
};

constexpr int kNumDirs = static_cast<int>(Dir::NumDirs);

/** @return short name of a direction ("L", "E", ...). */
const char *dirName(Dir d);

/** @return the direction opposite to @p d (Local maps to Local). */
Dir opposite(Dir d);

/**
 * A unidirectional physical link: a forward flit pipe and a backward
 * credit pipe, plus a bandwidth in flits per cycle. @p capacity is the
 * receiving port's credit total (VCs x VC depth): a flit in flight holds
 * one credit and a credit in flight returns one, so neither pipe can
 * ever hold more.
 */
struct Link
{
    Link(Cycle latency, int bandwidth_, std::size_t capacity)
        : data(latency, capacity), credit(latency, capacity),
          bandwidth(bandwidth_)
    {}

    Channel<LinkFlit> data;
    Channel<Credit> credit;
    int bandwidth;
};

/**
 * Builds and owns all links of a two-layer mesh. Vertical links exist at
 * every node (the 64 TSVs); the subset playing the role of wide region
 * TSBs is a policy choice applied by widening their bandwidth.
 */
class Topology
{
  public:
    /**
     * @param shape mesh dimensions (layers must be 2 for TSV wiring).
     * @param link_latency per-hop link latency in cycles.
     * @param link_bandwidth flits/cycle on regular links.
     * @param link_capacity per-port credit total (see Link).
     */
    Topology(const MeshShape &shape, Cycle link_latency, int link_bandwidth,
             std::size_t link_capacity);

    const MeshShape &shape() const { return shape_; }

    /** @return neighbour of @p n in direction @p d, or kInvalidNode. */
    NodeId neighbor(NodeId n, Dir d) const;

    /** @return the router-to-router link leaving @p n through @p d. */
    Link *linkOut(NodeId n, Dir d);
    const Link *linkOut(NodeId n, Dir d) const;

    /**
     * Widen the core-to-cache (Down) vertical link of @p core_node to
     * @p bandwidth flits per cycle — models a 256-bit region TSB.
     */
    void widenDownLink(NodeId core_node, int bandwidth);

  private:
    MeshShape shape_;
    Cycle linkLatency_;
    int linkBandwidth_;
    std::size_t linkCapacity_;
    /** links_[node][dir] = outgoing link, nullptr when no neighbour. */
    std::vector<std::array<std::unique_ptr<Link>, kNumDirs>> links_;
};

} // namespace stacknoc::noc

#endif // STACKNOC_NOC_TOPOLOGY_HH

#include "noc/topology.hh"

#include "common/logging.hh"

namespace stacknoc::noc {

const char *
dirName(Dir d)
{
    switch (d) {
      case Dir::Local: return "L";
      case Dir::East: return "E";
      case Dir::West: return "W";
      case Dir::North: return "N";
      case Dir::South: return "S";
      case Dir::Up: return "U";
      case Dir::Down: return "D";
      default: return "?";
    }
}

Dir
opposite(Dir d)
{
    switch (d) {
      case Dir::East: return Dir::West;
      case Dir::West: return Dir::East;
      case Dir::North: return Dir::South;
      case Dir::South: return Dir::North;
      case Dir::Up: return Dir::Down;
      case Dir::Down: return Dir::Up;
      default: return Dir::Local;
    }
}

Topology::Topology(const MeshShape &shape, Cycle link_latency,
                   int link_bandwidth, std::size_t link_capacity)
    : shape_(shape), linkLatency_(link_latency),
      linkBandwidth_(link_bandwidth), linkCapacity_(link_capacity),
      links_(static_cast<std::size_t>(shape.totalNodes()))
{
    for (NodeId n = 0; n < shape_.totalNodes(); ++n) {
        for (int d = 1; d < kNumDirs; ++d) {
            const Dir dir = static_cast<Dir>(d);
            if (neighbor(n, dir) != kInvalidNode) {
                links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(
                    d)] = std::make_unique<Link>(
                    linkLatency_, linkBandwidth_, linkCapacity_);
            }
        }
    }
}

NodeId
Topology::neighbor(NodeId n, Dir d) const
{
    Coord c = shape_.coord(n);
    switch (d) {
      case Dir::East: c.x += 1; break;
      case Dir::West: c.x -= 1; break;
      // Rows grow southward: North decreases y, South increases y.
      case Dir::North: c.y -= 1; break;
      case Dir::South: c.y += 1; break;
      case Dir::Up: c.layer -= 1; break;
      case Dir::Down: c.layer += 1; break;
      default: return kInvalidNode;
    }
    if (!shape_.contains(c))
        return kInvalidNode;
    return shape_.node(c);
}

Link *
Topology::linkOut(NodeId n, Dir d)
{
    return links_.at(static_cast<std::size_t>(n))[static_cast<std::size_t>(
        static_cast<int>(d))].get();
}

const Link *
Topology::linkOut(NodeId n, Dir d) const
{
    return links_.at(static_cast<std::size_t>(n))[static_cast<std::size_t>(
        static_cast<int>(d))].get();
}

void
Topology::widenDownLink(NodeId core_node, int bandwidth)
{
    Link *link = linkOut(core_node, Dir::Down);
    panic_if(link == nullptr, "node %d has no Down link", core_node);
    link->bandwidth = bandwidth;
}

} // namespace stacknoc::noc

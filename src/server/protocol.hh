/**
 * @file
 * The campaign-server wire protocol: newline-delimited JSON objects
 * over a Unix-domain stream socket (NDJSON both ways).
 *
 * Client -> server commands (one object per line):
 *
 *     {"cmd":"run", <RunSpec members>}
 *     {"cmd":"status"}
 *     {"cmd":"shutdown"}
 *
 * Server -> client events:
 *
 *     {"event":"accepted","id":N,"cache":"hit"|"miss","key":"0x..."}
 *     {"event":"interval","id":N,"cycle":C,"mean_ipc":...,
 *      "avg_network_latency":...}            (streamed during the run)
 *     {"event":"result","id":N,"cached":B,"key":"0x...","data":{...}}
 *     {"event":"error","id":N,"reason":"..."}
 *     {"event":"status", ...}    {"event":"bye"}
 *
 * The result cache is keyed by cacheKeyDigest(): an FNV-1a over the
 * canonical request rendering (see cacheKeyDigest) — the full warm
 * configuration plus measured cycles, interval period, engine knobs
 * and the protocol schema version. Identical requests are served from
 * cache without re-simulation; the determinism contract guarantees the
 * cached stats are exactly what a re-run would produce.
 */

#ifndef STACKNOC_SERVER_PROTOCOL_HH
#define STACKNOC_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "system/run_spec.hh"
#include "telemetry/json.hh"

namespace stacknoc::server {

/** Bumped whenever the request grammar or result payload changes
 *  incompatibly; part of the cache key, so stale entries self-expire. */
constexpr int kProtocolVersion = 1;

/** The result-cache key: FNV-1a over the canonical rendering of the
 *  resolved spec (docs/SERVER.md) — the warm spec, then cycles,
 *  interval, threads, elide and the protocol version. */
std::uint64_t cacheKeyDigest(const system::RunSpec &spec);

/** The {"cmd":"run", <spec members>} command line for @p spec. */
std::string runCommand(const system::RunSpec &spec);

/** "0x%016x" rendering used for keys and digests on the wire. */
std::string hexKey(std::uint64_t v);

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_PROTOCOL_HH

/**
 * @file
 * Byte-buffer archives for simulator checkpoints.
 *
 * Saver and Loader share one interface, so each component's field list
 * is written once (snapshot::StateIO) and run in either direction:
 * `ar.u32(x)` appends x on a Saver and reads into x on a Loader. Scalars
 * travel as fixed-width little-endian integers; enums, bools and signed
 * fields go as the bits of the width named at the call. Three helpers
 * from Archive carry the shape around the scalars: count() for a fixed
 * size checked on load, seq() for a variable-length container, present()
 * for an optional or owned part. Nothing here knows about components;
 * the framing (magic, version, digests) is snapshot/checkpoint.hh. All
 * failures surface as SnapshotError, which the checkpoint layer
 * converts into a one-line rejection reason.
 */

#ifndef STACKNOC_SNAPSHOT_SERIALIZE_HH
#define STACKNOC_SNAPSHOT_SERIALIZE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace stacknoc::snapshot {

/** Any malformed-checkpoint condition (truncation, bad tags, ...). */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** FNV-1a 64-bit, the digest used for config keys and payload checks. */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), h);
}

/**
 * The shape helpers both archives share. @p Ar is Saver or Loader; its
 * `loading` flag picks the direction at compile time.
 */
template <class Ar>
class Archive
{
  public:
    /** A size fixed by the configuration: saved, and checked on load
     *  against the freshly built system's own. */
    void
    count(std::size_t n, const char *what)
    {
        auto have = static_cast<std::uint32_t>(n);
        self().u32(have);
        if (have != n)
            mismatch(what);
    }

    /**
     * A variable-length container: its size, then elem(e) per element.
     * Loading clears @p c first and appends what it reads. Maps and sets
     * go in sorted-key order, so unordered containers are deterministic;
     * a map's elem takes (key, value).
     */
    template <class C, class Elem>
    void
    seq(C &c, Elem elem)
    {
        constexpr bool isMap = requires { typename C::mapped_type; };
        constexpr bool isSet = !isMap && requires { typename C::key_type; };
        if constexpr (Ar::loading) {
            const std::size_t n = self().length();
            c.clear();
            for (std::size_t i = 0; i < n; ++i) {
                if constexpr (isMap) {
                    typename C::key_type k{};
                    typename C::mapped_type v{};
                    elem(k, v);
                    c.emplace(std::move(k), std::move(v));
                } else if constexpr (isSet) {
                    typename C::value_type v{};
                    elem(v);
                    c.insert(std::move(v));
                } else {
                    elem(c.emplace_back());
                }
            }
        } else {
            self().u32(c.size());
            if constexpr (isMap || isSet) {
                std::vector<typename C::key_type> keys;
                for (const auto &e : c) {
                    if constexpr (isMap)
                        keys.push_back(e.first);
                    else
                        keys.push_back(e);
                }
                std::sort(keys.begin(), keys.end());
                for (const auto &k : keys) {
                    if constexpr (isMap)
                        elem(k, c.at(k));
                    else
                        elem(k);
                }
            } else {
                for (auto &e : c)
                    elem(e);
            }
        }
    }

    /**
     * A presence flag, then body(*p) when present. An optional's
     * presence is state: loading sets or clears it. A pointer's is
     * structure (the configuration built the part or not): loading
     * checks the flag against it and names @p what on a mismatch.
     */
    template <class P, class Body>
    void
    present(P &p, Body body, const char *what = "presence")
    {
        bool has = static_cast<bool>(p);
        self().b(has);
        if constexpr (Ar::loading) {
            if constexpr (requires { p.emplace(); }) {
                if (has)
                    p.emplace();
                else
                    p.reset();
            } else if (has != static_cast<bool>(p)) {
                mismatch(what);
            }
        }
        if (p)
            body(*p);
    }

  private:
    Ar &self() { return static_cast<Ar &>(*this); }

    [[noreturn]] static void
    mismatch(const char *what)
    {
        throw SnapshotError(std::string("checkpoint structure mismatch: ")
                            + what);
    }
};

/** Append-only writer. */
class Saver : public Archive<Saver>
{
  public:
    static constexpr bool loading = false;

    template <class T> void u8(const T &v) { put(v, 1); }
    template <class T> void u16(const T &v) { put(v, 2); }
    template <class T> void u32(const T &v) { put(v, 4); }
    template <class T> void u64(const T &v) { put(v, 8); }
    void b(bool v) { put(v, 1); }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    template <class T>
    void
    put(const T &v, int width)
    {
        const auto bits = static_cast<std::uint64_t>(v);
        for (int i = 0; i < width; ++i)
            buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/** Sequential reader over a byte buffer; throws on underflow. */
class Loader : public Archive<Loader>
{
  public:
    static constexpr bool loading = true;

    Loader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Loader(const std::vector<std::uint8_t> &buf)
        : Loader(buf.data(), buf.size())
    {
    }

    // A signed field reads back modulo 2^width: the bits it was saved as.
    template <class T> void u8(T &v) { v = static_cast<T>(get(1)); }
    template <class T> void u16(T &v) { v = static_cast<T>(get(2)); }
    template <class T> void u32(T &v) { v = static_cast<T>(get(4)); }
    template <class T> void u64(T &v) { v = static_cast<T>(get(8)); }
    /** Also takes a std::vector<bool> element proxy. */
    template <class T> void b(T &&v) { v = get(1) != 0; }

    /** A container length: every element is at least one byte, so a
     *  count beyond the bytes left is corrupt. Refused here, before
     *  anything is sized by it. */
    std::size_t
    length()
    {
        std::uint32_t n = 0;
        u32(n);
        if (n > size_ - pos_)
            throw SnapshotError("element count exceeds the payload "
                                "(corrupt checkpoint)");
        return n;
    }

    bool atEnd() const { return pos_ == size_; }

  private:
    std::uint64_t
    get(int width)
    {
        if (size_ - pos_ < static_cast<std::size_t>(width))
            throw SnapshotError("checkpoint payload truncated");
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= std::uint64_t{data_[pos_++]} << (8 * i);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_SERIALIZE_HH

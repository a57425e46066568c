/**
 * @file
 * Typed key=value configuration store.
 *
 * Subsystems consume plain parameter structs; this store is the
 * string-facing layer used by benches, examples and tests to override
 * defaults from the command line ("key=value" arguments).
 */

#ifndef MDW_SIM_CONFIG_HH
#define MDW_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdw {

/**
 * Clamp @p raw into [lo, hi], warning once per @p key per process
 * (thread-safe) when it was out of range. Shared by config keys and
 * environment overrides that take the same range.
 */
int clampWarnOnce(const char *key, std::int64_t raw, int lo, int hi);

/** String-keyed configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /**
     * Warns (once per key per process, on stderr) about tokens that
     * were parsed from the command line but never read by anyone — a
     * typo like `thread=4` would otherwise be silently ignored.
     * Programmatic set() does not arm the warning.
     */
    ~Config();

    Config(const Config &) = default;
    Config &operator=(const Config &) = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** Parse a single "key=value" token; fatal() on bad syntax. */
    void parseToken(const std::string &token);

    /**
     * Parse argv-style arguments; every argument must be key=value.
     * Returns the number of tokens consumed.
     */
    int parseArgs(int argc, char **argv);

    bool has(const std::string &key) const;

    /** Typed getters; fatal() if present but malformed. */
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    std::uint64_t getU64(const std::string &key, std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
    std::string getString(const std::string &key,
                          const std::string &dflt) const;

    /** Keys that were set but never read (catches typos). */
    std::vector<std::string> unreadKeys() const;

    /** Unread keys that came from parseToken/parseArgs (user typos). */
    std::vector<std::string> unreadParsedKeys() const;

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

  private:
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::map<std::string, bool> read_;
    /** Keys that arrived via parseToken (vs programmatic set()). */
    std::map<std::string, bool> parsed_;
};

} // namespace mdw

#endif // MDW_SIM_CONFIG_HH

#include "sim/config.hh"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <set>

#include "sim/logging.hh"

namespace mdw {

namespace {

/** Warn about an unread CLI key at most once per process. */
void
warnUnreadOnce(const std::string &key)
{
    static std::set<std::string> warned;
    if (!warned.insert(key).second)
        return;
    warn("config key '%s' was set on the command line but never read "
         "(unknown key?)",
         key.c_str());
}

} // namespace

int
clampWarnOnce(const char *key, std::int64_t raw, int lo, int hi)
{
    const std::int64_t clamped =
        std::min<std::int64_t>(std::max<std::int64_t>(raw, lo), hi);
    if (clamped != raw) {
        static std::mutex mutex;
        static std::set<std::string> warned;
        const std::lock_guard<std::mutex> lock(mutex);
        if (warned.insert(key).second)
            warn("'%s' value %lld out of range [%d, %d]; clamping to "
                 "%lld",
                 key, static_cast<long long>(raw), lo, hi,
                 static_cast<long long>(clamped));
    }
    return static_cast<int>(clamped);
}

Config::~Config()
{
    for (const std::string &key : unreadParsedKeys())
        warnUnreadOnce(key);
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
    read_[key] = false;
}

void
Config::parseToken(const std::string &token)
{
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("config token '%s' is not key=value", token.c_str());
    set(token.substr(0, eq), token.substr(eq + 1));
    parsed_[token.substr(0, eq)] = true;
}

int
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        parseToken(argv[i]);
    return argc > 1 ? argc - 1 : 0;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

const std::string *
Config::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    read_[key] = true;
    return &it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    const long long parsed = std::strtoll(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an integer", key.c_str(),
              v->c_str());
    return parsed;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an unsigned integer",
              key.c_str(), v->c_str());
    return parsed;
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not a number", key.c_str(),
              v->c_str());
    return parsed;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    const std::string *v = lookup(key);
    if (!v)
        return dflt;
    if (*v == "1" || *v == "true" || *v == "yes" || *v == "on")
        return true;
    if (*v == "0" || *v == "false" || *v == "no" || *v == "off")
        return false;
    fatal("config key '%s': '%s' is not a boolean", key.c_str(),
          v->c_str());
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    const std::string *v = lookup(key);
    return v ? *v : dflt;
}

std::vector<std::string>
Config::unreadKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, was_read] : read_) {
        if (!was_read)
            out.push_back(key);
    }
    return out;
}

std::vector<std::string>
Config::unreadParsedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, was_read] : read_) {
        if (!was_read && parsed_.count(key))
            out.push_back(key);
    }
    return out;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[key, value] : values_)
        out.push_back(key);
    return out;
}

} // namespace mdw

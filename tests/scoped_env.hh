/**
 * @file
 * Pin an environment variable for one scope. Tests that name a
 * specific scheduler, shard count or lane count use it so the MDW_*
 * overrides a whole-suite run sets cannot collapse what they check.
 */

#ifndef MDW_TESTS_SCOPED_ENV_HH
#define MDW_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

namespace mdw {

/** Sets @p name to @p value (unsets it when null) until destroyed. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved_)
            ::setenv(name_.c_str(), saved_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

} // namespace mdw

#endif // MDW_TESTS_SCOPED_ENV_HH

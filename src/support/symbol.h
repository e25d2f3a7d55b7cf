/**
 * @file
 * Interned string symbols.
 *
 * Symbols are the currency of the e-graph layer: every SeerLang operator
 * (including ones carrying encoded static attributes, e.g. "const:42:i32")
 * is an interned string, so comparison and hashing are O(1). The
 * ':'-separated fields of a symbol are split, and its text hashed, once,
 * when the text is first interned, so decoding or content-hashing a
 * symbol never re-reads its text.
 */
#ifndef SEER_SUPPORT_SYMBOL_H_
#define SEER_SUPPORT_SYMBOL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace seer {

/**
 * An interned string. Two Symbols constructed from equal strings compare
 * equal by id. The intern table is process-global and never shrinks.
 */
class Symbol
{
  public:
    /** The empty symbol (id 0 interns ""). */
    Symbol();

    /** Intern a string. */
    explicit Symbol(std::string_view text);

    /** The interned text. Valid for the lifetime of the process. */
    const std::string &str() const;

    /**
     * The text split at every ':' ("const:42:i32" -> const, 42, i32;
     * "a:" -> a and ""; "" -> one empty field). Split once, at intern
     * time; the views point into str() and, like it, stay valid for
     * the lifetime of the process.
     */
    std::span<const std::string_view> fields() const;

    /** hashString(str()) (support/hashing.h), computed once at intern
     *  time. Lock-free, like str(). */
    uint64_t textHash() const;

    uint32_t id() const { return id_; }
    bool empty() const { return id_ == 0; }

    bool operator==(const Symbol &other) const { return id_ == other.id_; }
    bool operator!=(const Symbol &other) const { return id_ != other.id_; }
    bool operator<(const Symbol &other) const { return id_ < other.id_; }

  private:
    uint32_t id_;
};

} // namespace seer

template <>
struct std::hash<seer::Symbol>
{
    size_t
    operator()(const seer::Symbol &s) const noexcept
    {
        return std::hash<uint32_t>()(s.id());
    }
};

#endif // SEER_SUPPORT_SYMBOL_H_

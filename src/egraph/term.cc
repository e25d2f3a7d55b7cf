#include "egraph/term.h"

#include <cctype>
#include <sstream>

#include "support/error.h"

namespace seer::eg {

size_t
Term::size() const
{
    size_t n = 1;
    for (const auto &child : children_)
        n += child->size();
    return n;
}

bool
Term::equals(const Term &other) const
{
    if (op_ != other.op_ || children_.size() != other.children_.size())
        return false;
    for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->equals(*other.children_[i]))
            return false;
    }
    return true;
}

std::string
Term::str() const
{
    if (isLeaf())
        return op_.str();
    std::ostringstream os;
    os << "(" << op_.str();
    for (const auto &child : children_)
        os << " " << child->str();
    os << ")";
    return os.str();
}

TermPtr
makeTerm(Symbol op, std::vector<TermPtr> children)
{
    return std::make_shared<Term>(op, std::move(children));
}

TermPtr
makeTerm(std::string_view op, std::vector<TermPtr> children)
{
    return makeTerm(Symbol(op), std::move(children));
}

namespace {

class SExprParser
{
  public:
    explicit SExprParser(std::string_view text) : text_(text) {}

    TermPtr
    parse()
    {
        TermPtr term = parseOne();
        skipSpace();
        if (pos_ != text_.size())
            fatal("trailing characters after S-expression");
        return term;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    std::string
    atom()
    {
        size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '(' &&
               text_[pos_] != ')' &&
               !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (start == pos_)
            fatal("expected atom in S-expression");
        return std::string(text_.substr(start, pos_ - start));
    }

    TermPtr
    parseOne()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fatal("unexpected end of S-expression");
        if (text_[pos_] != '(')
            return makeTerm(Symbol(atom()));
        ++pos_; // consume '('
        skipSpace();
        Symbol op(atom());
        std::vector<TermPtr> children;
        while (true) {
            skipSpace();
            if (pos_ >= text_.size())
                fatal("unterminated S-expression");
            if (text_[pos_] == ')') {
                ++pos_;
                break;
            }
            children.push_back(parseOne());
        }
        return makeTerm(op, std::move(children));
    }

    std::string_view text_;
    size_t pos_ = 0;
};

} // namespace

TermPtr
parseTerm(std::string_view text)
{
    return SExprParser(text).parse();
}

Symbol
joinSymbol(const std::vector<std::string> &fields)
{
    std::string text;
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            text += ":";
        text += fields[i];
    }
    return Symbol(text);
}

} // namespace seer::eg

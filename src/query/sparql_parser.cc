#include "query/sparql_parser.h"

#include <cctype>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/ntriples_parser.h"
#include "rdf/vocabulary.h"
#include "util/string_util.h"

namespace rdfsum::query {
namespace {

struct Token {
  enum class Kind {
    kKeyword,   // SELECT, ASK, WHERE, PREFIX (case-insensitive), a
    kVariable,  // ?name
    kIri,       // <...>
    kPrefixedName,
    kLiteral,  // full literal text including quotes and suffixes
    kLBrace,
    kRBrace,
    kDot,
    kStar,
    kEnd,
  };
  Kind kind;
  std::string_view text;  // a slice of the query text
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipWsAndComments();
      if (pos_ >= text_.size()) {
        out.push_back({Token::Kind::kEnd, ""});
        return out;
      }
      char c = text_[pos_];
      if (c == '{') {
        out.push_back({Token::Kind::kLBrace, "{"});
        ++pos_;
      } else if (c == '}') {
        out.push_back({Token::Kind::kRBrace, "}"});
        ++pos_;
      } else if (c == '.') {
        out.push_back({Token::Kind::kDot, "."});
        ++pos_;
      } else if (c == '*') {
        out.push_back({Token::Kind::kStar, "*"});
        ++pos_;
      } else if (c == '?' || c == '$') {
        const size_t start = ++pos_;
        while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
        if (pos_ == start) {
          return Status::InvalidArgument("empty variable name");
        }
        out.push_back(
            {Token::Kind::kVariable, text_.substr(start, pos_ - start)});
      } else if (c == '<') {
        size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) {
          return Status::InvalidArgument("unterminated IRI");
        }
        out.push_back({Token::Kind::kIri, text_.substr(pos_, end - pos_ + 1)});
        pos_ = end + 1;
      } else if (c == '"') {
        std::string_view lit = ReadLiteral();
        if (lit.empty()) return Status::InvalidArgument("unterminated literal");
        out.push_back({Token::Kind::kLiteral, lit});
      } else if (IsNameStart(c)) {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (IsNameChar(text_[pos_]) || text_[pos_] == ':')) {
          ++pos_;
        }
        const std::string_view word = text_.substr(start, pos_ - start);
        if (word.find(':') != std::string_view::npos) {
          out.push_back({Token::Kind::kPrefixedName, word});
        } else {
          out.push_back({Token::Kind::kKeyword, word});
        }
      } else {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "'");
      }
    }
  }

 private:
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
  }

  void SkipWsAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  /// Reads a literal with optional @lang or ^^<iri> suffix; returns the full
  /// source text ("" on error).
  std::string_view ReadLiteral() {
    size_t start = pos_;
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      if (text_[pos_] == '\\') {
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '"') {
        ++pos_;
        break;
      }
      ++pos_;
    }
    if (pos_ > text_.size()) return "";
    if (pos_ < text_.size() && text_[pos_] == '@') {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-')) {
        ++pos_;
      }
    } else if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
               text_[pos_ + 1] == '^') {
      pos_ += 2;
      if (pos_ < text_.size() && text_[pos_] == '<') {
        size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) return "";
        pos_ = end + 1;
      }
    }
    return text_.substr(start, pos_ - start);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<BgpQuery> Parse() {
    BgpQuery query;
    // PREFIX declarations.
    while (IsKeyword("PREFIX")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kPrefixedName &&
          Cur().kind != Token::Kind::kKeyword) {
        return Status::InvalidArgument("expected prefix name after PREFIX");
      }
      std::string_view label = Cur().text;
      if (!label.empty() && label.back() == ':') label.remove_suffix(1);
      // "ex:" lexes as a prefixed name with empty local part; "ex" followed
      // by ":" cannot occur since ':' is consumed into the word.
      label = label.substr(0, label.find(':'));
      ++pos_;
      if (Cur().kind != Token::Kind::kIri) {
        return Status::InvalidArgument("expected IRI after PREFIX " +
                                       std::string(label));
      }
      const std::string_view iri = Cur().text;
      prefixes_[std::string(label)] = iri.substr(1, iri.size() - 2);
      ++pos_;
    }

    bool is_ask = false;
    if (IsKeyword("SELECT")) {
      ++pos_;
      if (Cur().kind == Token::Kind::kStar) {
        select_star_ = true;
        ++pos_;
      } else {
        while (Cur().kind == Token::Kind::kVariable) {
          query.distinguished.emplace_back(Cur().text);
          ++pos_;
        }
        if (query.distinguished.empty()) {
          return Status::InvalidArgument("SELECT requires variables or *");
        }
      }
    } else if (IsKeyword("ASK")) {
      is_ask = true;
      ++pos_;
    } else {
      return Status::NotSupported("query must start with SELECT or ASK");
    }

    if (IsKeyword("WHERE")) ++pos_;
    if (Cur().kind != Token::Kind::kLBrace) {
      return Status::InvalidArgument("expected '{'");
    }
    ++pos_;

    while (Cur().kind != Token::Kind::kRBrace) {
      if (Cur().kind == Token::Kind::kEnd) {
        return Status::InvalidArgument("unterminated '{' block");
      }
      if (IsKeyword("OPTIONAL") || IsKeyword("FILTER") || IsKeyword("UNION") ||
          IsKeyword("GRAPH") || IsKeyword("MINUS")) {
        return Status::NotSupported(std::string(Cur().text) +
                                    " is outside the BGP dialect");
      }
      TriplePatternQ triple;
      auto s = ParsePatternTerm(/*property_position=*/false);
      if (!s.ok()) return s.status();
      auto p = ParsePatternTerm(/*property_position=*/true);
      if (!p.ok()) return p.status();
      auto o = ParsePatternTerm(/*property_position=*/false);
      if (!o.ok()) return o.status();
      triple.s = std::move(s).value();
      triple.p = std::move(p).value();
      triple.o = std::move(o).value();
      query.triples.push_back(std::move(triple));
      if (Cur().kind == Token::Kind::kDot) ++pos_;
    }
    ++pos_;  // consume '}'
    if (Cur().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument("trailing tokens after '}'");
    }
    if (query.triples.empty()) {
      return Status::InvalidArgument("empty BGP");
    }
    if (select_star_) {
      query.distinguished = query.BodyVariables();
    }
    if (!is_ask) {
      // Validate head variables occur in the body.
      auto body = query.BodyVariables();
      for (const std::string& v : query.distinguished) {
        bool found = false;
        for (const std::string& b : body) {
          if (b == v) {
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::InvalidArgument("head variable ?" + v +
                                         " not in body");
        }
      }
    }
    return query;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  bool IsKeyword(std::string_view kw) const {
    return Cur().kind == Token::Kind::kKeyword &&
           EqualsIgnoreAsciiCase(Cur().text, kw);
  }

  StatusOr<PatternTerm> ParsePatternTerm(bool property_position) {
    const Token& tok = Cur();
    switch (tok.kind) {
      case Token::Kind::kVariable:
        ++pos_;
        return PatternTerm::Var(std::string(tok.text));
      case Token::Kind::kIri: {
        auto term = io::NTriplesParser::ParseTerm(tok.text);
        if (!term.ok()) return term.status();
        ++pos_;
        return PatternTerm::Const(std::move(term).value());
      }
      case Token::Kind::kLiteral: {
        if (property_position) {
          return Status::InvalidArgument("literal in property position");
        }
        auto term = io::NTriplesParser::ParseTerm(tok.text);
        if (!term.ok()) return term.status();
        ++pos_;
        return PatternTerm::Const(std::move(term).value());
      }
      case Token::Kind::kKeyword:
        if (tok.text == "a" && property_position) {
          ++pos_;
          return PatternTerm::Const(Term::Iri(vocab::kRdfType));
        }
        return Status::InvalidArgument("unexpected keyword '" +
                                       std::string(tok.text) + "' in pattern");
      case Token::Kind::kPrefixedName: {
        const size_t colon = tok.text.find(':');
        const std::string_view prefix = tok.text.substr(0, colon);
        auto it = prefixes_.find(prefix);
        if (it == prefixes_.end()) {
          return Status::InvalidArgument("undeclared prefix '" +
                                         std::string(prefix) + ":'");
        }
        ++pos_;
        std::string iri = it->second;
        iri += tok.text.substr(colon + 1);
        return PatternTerm::Const(Term{TermKind::kIri, std::move(iri), {}, {}});
      }
      default:
        return Status::InvalidArgument("expected term, found '" +
                                       std::string(tok.text) + "'");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool select_star_ = false;
  /// Transparent, so a prefix looks up as a slice of the query text.
  struct PrefixHash {
    using is_transparent = void;
    size_t operator()(std::string_view label) const {
      return std::hash<std::string_view>()(label);
    }
  };
  std::unordered_map<std::string, std::string, PrefixHash, std::equal_to<>>
      prefixes_;
};

}  // namespace

StatusOr<BgpQuery> ParseSparql(std::string_view text) {
  Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace rdfsum::query

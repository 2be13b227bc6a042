#include "io/turtle_parser.h"

#include <cctype>
#include <unordered_map>
#include <vector>

#include "io/read_file.h"
#include "io/term_scanner.h"
#include "rdf/vocabulary.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace rdfsum::io {
namespace {

constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

class Parser {
 public:
  Parser(std::string_view text, Graph* graph, TurtleParseStats* stats,
         const TurtleParseOptions& options)
      : text_(text), graph_(graph), stats_(stats), options_(options) {}

  Status Run() {
    while (true) {
      SkipWsAndComments();
      if (pos_ >= text_.size()) return Status::OK();
      ++statements_;
      if (options_.exec != nullptr &&
          (statements_ & (util::ExecContext::kCheckInterval - 1)) == 0) {
        RDFSUM_RETURN_IF_ERROR(options_.exec->Check());
      }
      statement_start_ = pos_;
      statement_line_ = line_;
      Status st = ParseStatement();
      if (!st.ok()) {
        if (options_.strict) return st;
        // Lenient mode: count + record the failure, then resynchronize at
        // the next top-level '.' — triples the statement emitted before its
        // failure point stay, like the N-Triples parser's earlier lines.
        if (stats_ != nullptr) {
          ++stats_->skipped;
          if (stats_->diagnostics.size() < TurtleParseStats::kMaxDiagnostics) {
            std::string msg(st.message());
            // Err() already prefixes the line; NotSupported sites don't.
            if (!StartsWith(msg, "line ")) {
              msg = "line " + std::to_string(statement_line_) + ": " + msg;
            }
            stats_->diagnostics.push_back(std::move(msg));
          }
        }
        RecoverToStatementEnd();
      }
    }
  }

 private:
  // ------------------------------------------------------------- lexing
  void SkipWsAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (c == '\n') ++line_;
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool Eat(char c) {
    SkipWsAndComments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(line_) + ": " +
                                   msg);
  }

  /// Decodes the string escape at pos_ through the N-Triples decoder.
  Status Escape(std::string* out) {
    Status st = internal::DecodeEscape(text_, pos_, out);
    return st.ok() ? st : Err(std::string(st.message()));
  }

  bool EatKeyword(std::string_view kw) {
    SkipWsAndComments();
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(kw[i]))) {
        return false;
      }
    }
    // Keyword must not continue as a name.
    size_t end = pos_ + kw.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_' || text_[end] == ':')) {
      return false;
    }
    pos_ = end;
    return true;
  }

  // ------------------------------------------------------------- grammar
  Status ParseStatement() {
    bool at_prefix = EatKeyword("@prefix");
    if (at_prefix || EatKeyword("PREFIX")) {
      RDFSUM_RETURN_IF_ERROR(ParsePrefixDecl());
      // @prefix requires a trailing dot; SPARQL-style PREFIX takes none.
      if (at_prefix && !Eat('.')) return Err("@prefix must end with '.'");
      return Status::OK();
    }
    bool at_base = EatKeyword("@base");
    if (at_base || EatKeyword("BASE")) {
      auto iri = ParseIriRef();
      if (!iri.ok()) return iri.status();
      base_ = iri->lexical;
      if (at_base && !Eat('.')) return Err("@base must end with '.'");
      return Status::OK();
    }
    // subject predicate-object-list '.'
    auto subject = ParseTermChecked(/*allow_literal=*/false);
    if (!subject.ok()) return subject.status();
    RDFSUM_RETURN_IF_ERROR(ParsePredicateObjectList(*subject));
    if (!Eat('.')) return Err("expected '.' at end of statement");
    return Status::OK();
  }

  Status ParsePrefixDecl() {
    SkipWsAndComments();
    std::string label;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.')) {
      label.push_back(text_[pos_++]);
    }
    if (!Eat(':')) return Err("expected ':' in prefix declaration");
    auto iri = ParseIriRef();
    if (!iri.ok()) return iri.status();
    prefixes_[label] = iri->lexical;
    if (stats_ != nullptr) ++stats_->prefixes;
    return Status::OK();
  }

  Status ParsePredicateObjectList(const Term& subject) {
    while (true) {
      Term predicate;
      SkipWsAndComments();
      if (EatKeyword("a")) {
        predicate = Term::Iri(vocab::kRdfType);
      } else {
        auto p = ParseTermChecked(/*allow_literal=*/false);
        if (!p.ok()) return p.status();
        if (!p->is_iri()) return Err("predicate must be an IRI");
        predicate = std::move(*p);
      }
      // Object list.
      while (true) {
        auto object = ParseTermChecked(/*allow_literal=*/true);
        if (!object.ok()) return object.status();
        bool fresh = graph_->AddTerms(subject, predicate, *object);
        if (stats_ != nullptr) {
          ++stats_->triples;
          if (!fresh) ++stats_->duplicates;
        }
        if (!Eat(',')) break;
      }
      if (!Eat(';')) break;
      // A dangling ';' before '.' is legal Turtle.
      SkipWsAndComments();
      if (pos_ < text_.size() && text_[pos_] == '.') break;
    }
    return Status::OK();
  }

  /// Best-effort resynchronization after a failed statement: scans to the
  /// next '.' that sits outside <iri> brackets, quoted literals, and
  /// comments, and consumes it. A '.' inside a prefixed name or number can
  /// still end the scan early — the price of recovery without a full parse,
  /// and at worst it costs one extra diagnostic.
  void RecoverToStatementEnd() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '.') {
        ++pos_;
        return;
      }
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '<') {
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '>' &&
               text_[pos_] != '\n') {
          ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '>') ++pos_;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != quote) {
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ < text_.size()) ++pos_;
        continue;
      }
      ++pos_;
    }
  }

  // ------------------------------------------------------------- terms
  /// Enforces TurtleParseOptions::max_term_bytes on a decoded term.
  Status CheckTermSize(const Term& t) {
    if (options_.max_term_bytes == 0) return Status::OK();
    const uint64_t size =
        t.lexical.size() + t.datatype.size() + t.language.size();
    if (size > options_.max_term_bytes) {
      return Err("term of " + std::to_string(size) +
                 " bytes exceeds max_term_bytes (" +
                 std::to_string(options_.max_term_bytes) + ")");
    }
    return Status::OK();
  }

  StatusOr<Term> ParseTermChecked(bool allow_literal) {
    // The statement-span guard lives here because every grammar production
    // funnels through term parsing: a runaway statement (missing '.') trips
    // it after at most one term beyond the cap.
    if (options_.max_statement_bytes != 0 &&
        pos_ - statement_start_ > options_.max_statement_bytes) {
      return Err("statement of " + std::to_string(pos_ - statement_start_) +
                 " bytes exceeds max_statement_bytes (" +
                 std::to_string(options_.max_statement_bytes) + ")");
    }
    auto term = ParseTermInner(allow_literal);
    if (!term.ok()) return term;
    RDFSUM_RETURN_IF_ERROR(CheckTermSize(*term));
    return term;
  }

  StatusOr<Term> ParseTermInner(bool allow_literal) {
    SkipWsAndComments();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '<') return ParseIriRef();
    if (c == '_') return ParseBlank();
    if (c == '[') {
      ++pos_;
      SkipWsAndComments();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return Term::Blank("anon" + std::to_string(anon_counter_++));
      }
      return Status::NotSupported(
          "blank node property lists [ p o ] are not supported");
    }
    if (c == '(') {
      return Status::NotSupported("RDF collections ( ... ) are not supported");
    }
    if (c == '"' || c == '\'') {
      if (!allow_literal) return Err("literal not allowed here");
      return ParseQuotedLiteral();
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-') {
      if (!allow_literal) return Err("numeric literal not allowed here");
      return ParseNumericLiteral();
    }
    if (EatKeyword("true")) return Term::TypedLiteral("true", kXsdBoolean);
    if (EatKeyword("false")) return Term::TypedLiteral("false", kXsdBoolean);
    return ParsePrefixedName();
  }

  StatusOr<Term> ParseIriRef() {
    SkipWsAndComments();
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Err("expected IRI");
    }
    // IRIREF is the same production as in N-Triples, so it goes through the
    // same scanner (byte and escape rules: io/term_scanner.h).
    std::string_view body;
    Status st = internal::ScanIri(text_, pos_, &iri_scratch_, &body);
    if (!st.ok()) return Err(std::string(st.message()));
    std::string iri(body);
    // Resolve against @base for relative IRIs (pragmatic concatenation).
    if (!base_.empty() && iri.find(':') == std::string::npos) {
      iri = base_ + iri;
    }
    if (iri.empty()) return Err("empty IRI");
    return Term::Iri(iri);
  }

  StatusOr<Term> ParseBlank() {
    // text_[pos_] == '_'
    if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != ':') {
      return Err("expected blank node label");
    }
    pos_ += 2;
    std::string label;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-')) {
      label.push_back(text_[pos_++]);
    }
    if (label.empty()) return Err("empty blank node label");
    return Term::Blank(label);
  }

  StatusOr<Term> ParseQuotedLiteral() {
    char quote = text_[pos_];
    if (pos_ + 2 < text_.size() && text_[pos_ + 1] == quote &&
        text_[pos_ + 2] == quote) {
      return Status::NotSupported("triple-quoted literals are not supported");
    }
    ++pos_;
    std::string lex;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      char c = text_[pos_];
      if (c == '\\') {
        RDFSUM_RETURN_IF_ERROR(Escape(&lex));
        continue;
      }
      if (c == '\n') return Err("newline in single-quoted literal");
      lex.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return Err("unterminated literal");
    ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '@') {
      ++pos_;
      std::string lang;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-')) {
        lang.push_back(text_[pos_++]);
      }
      if (lang.empty()) return Err("empty language tag");
      return Term::LangLiteral(lex, lang);
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
        text_[pos_ + 1] == '^') {
      pos_ += 2;
      SkipWsAndComments();
      StatusOr<Term> dt = text_[pos_] == '<' ? ParseIriRef()
                                             : ParsePrefixedName();
      if (!dt.ok()) return dt.status();
      if (!dt->is_iri()) return Err("datatype must be an IRI");
      return Term::TypedLiteral(lex, dt->lexical);
    }
    return Term::Literal(lex);
  }

  StatusOr<Term> ParseNumericLiteral() {
    std::string digits;
    bool is_decimal = false;
    if (text_[pos_] == '+' || text_[pos_] == '-') {
      digits.push_back(text_[pos_++]);
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      if (text_[pos_] == '.') {
        // A '.' not followed by a digit terminates the statement instead.
        if (pos_ + 1 >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
          break;
        }
        is_decimal = true;
      }
      digits.push_back(text_[pos_++]);
    }
    if (digits.empty() || digits == "+" || digits == "-") {
      return Err("malformed numeric literal");
    }
    return Term::TypedLiteral(digits, is_decimal ? kXsdDecimal : kXsdInteger);
  }

  StatusOr<Term> ParsePrefixedName() {
    SkipWsAndComments();
    std::string prefix;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.')) {
      prefix.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size() || text_[pos_] != ':') {
      return Err("expected prefixed name, found '" + prefix + "'");
    }
    ++pos_;
    std::string local;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-')) {
      local.push_back(text_[pos_++]);
    }
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Err("undeclared prefix '" + prefix + ":'");
    }
    return Term::Iri(it->second + local);
  }

  std::string_view text_;
  Graph* graph_;
  TurtleParseStats* stats_;
  TurtleParseOptions options_;
  size_t pos_ = 0;
  uint64_t line_ = 1;
  uint64_t statements_ = 0;
  size_t statement_start_ = 0;   // byte offset of the current statement
  uint64_t statement_line_ = 1;  // line it started on, for diagnostics
  uint64_t anon_counter_ = 0;
  std::string base_;
  std::string iri_scratch_;  // ScanIri's decode buffer
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

Status TurtleParser::ParseString(std::string_view text, Graph* graph,
                                 TurtleParseStats* stats,
                                 const TurtleParseOptions& options) {
  Parser parser(text, graph, stats, options);
  return parser.Run();
}

Status TurtleParser::ParseFile(const std::string& path, Graph* graph,
                               TurtleParseStats* stats,
                               const TurtleParseOptions& options) {
  std::string buffer;
  RDFSUM_RETURN_IF_ERROR(internal::ReadFile(path, &buffer));
  return ParseString(buffer, graph, stats, options);
}

}  // namespace rdfsum::io

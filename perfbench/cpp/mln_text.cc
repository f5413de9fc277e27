#include "mln_text.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/rng.h"

namespace perfbench {

using tuffy::Clause;
using tuffy::ConstantId;
using tuffy::Dataset;
using tuffy::EqualityConstraint;
using tuffy::EvidenceDb;
using tuffy::GroundAtom;
using tuffy::Literal;
using tuffy::MlnProgram;
using tuffy::Predicate;
using tuffy::Result;
using tuffy::Term;

namespace {

std::string Quote(const std::string& symbol) { return "\"" + symbol + "\""; }

std::string TermText(const MlnProgram& program, const Clause& c,
                     const Term& t) {
  if (t.is_var) return c.var_names[t.id];
  return Quote(program.symbols().SymbolName(t.id));
}

std::string AtomText(const MlnProgram& program, const Clause& c,
                     const Literal& lit, bool with_sign) {
  std::string out = with_sign && !lit.positive ? "!" : "";
  out += program.predicate(lit.pred).name + "(";
  for (size_t j = 0; j < lit.args.size(); ++j) {
    if (j > 0) out += ", ";
    out += TermText(program, c, lit.args[j]);
  }
  return out + ")";
}

std::string WeightText(double w) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", w);
  return buf;
}

}  // namespace

std::vector<EvidenceLine> OrderedEvidence(const Dataset& ds, uint64_t seed) {
  std::vector<EvidenceLine> lines;
  lines.reserve(ds.evidence.num_evidence());
  for (const auto& [atom, truth] : ds.evidence.entries()) {
    lines.push_back({atom, truth});
  }
  std::sort(lines.begin(), lines.end(),
            [](const EvidenceLine& a, const EvidenceLine& b) {
              if (a.atom.pred != b.atom.pred) return a.atom.pred < b.atom.pred;
              return a.atom.args < b.atom.args;
            });
  tuffy::Rng rng(seed);
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.Uniform(i)]);
  }
  return lines;
}

std::string RenderProgram(const MlnProgram& program) {
  std::string out;
  for (const Predicate& p : program.predicates()) {
    out += p.closed_world ? "*" : "";
    out += p.name + "(";
    for (int i = 0; i < p.arity(); ++i) {
      out += (i > 0 ? ", " : "") + p.arg_types[i];
    }
    out += ")\n";
  }
  for (const Clause& c : program.clauses()) {
    // Implication form, "body => head": the leading negative literals
    // become the body, so the parser meets variables (and constants) in
    // the same order as in the source rule and assigns the same ids.
    size_t body = 0;
    while (body < c.literals.size() && !c.literals[body].positive) ++body;
    if (body == c.literals.size() && c.equalities.empty()) body = 0;
    std::string line = c.hard ? "" : WeightText(c.weight) + " ";
    for (size_t i = 0; i < body; ++i) {
      line += (i > 0 ? ", " : "") + AtomText(program, c, c.literals[i], false);
    }
    if (body > 0) line += " => ";
    if (!c.existential_vars.empty()) {
      line += "EXIST ";
      for (size_t i = 0; i < c.existential_vars.size(); ++i) {
        line += (i > 0 ? ", " : "") + c.var_names[c.existential_vars[i]];
      }
      line += " ";
    }
    bool first = true;
    for (size_t i = body; i < c.literals.size(); ++i) {
      line += (first ? "" : " v ") + AtomText(program, c, c.literals[i], true);
      first = false;
    }
    for (const EqualityConstraint& eq : c.equalities) {
      line += (first ? "" : " v ") + TermText(program, c, eq.lhs) +
              (eq.equal ? " = " : " != ") + TermText(program, c, eq.rhs);
      first = false;
    }
    out += line + (c.hard ? ".\n" : "\n");
  }
  return out;
}

std::string RenderEvidence(const MlnProgram& program,
                           const std::vector<EvidenceLine>& lines) {
  std::string out;
  for (const EvidenceLine& line : lines) {
    out += line.truth ? "" : "!";
    out += program.predicate(line.atom.pred).name + "(";
    for (size_t i = 0; i < line.atom.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(program.symbols().SymbolName(line.atom.args[i]));
    }
    out += ")\n";
  }
  return out;
}

Result<Dataset> BuildReference(const Dataset& source,
                               const std::vector<EvidenceLine>& lines) {
  const MlnProgram& src = source.program;
  Dataset out;
  out.name = source.name;
  for (const Predicate& p : src.predicates()) {
    Predicate copy = p;
    copy.id = tuffy::kInvalidPredicate;
    TUFFY_RETURN_IF_ERROR(out.program.AddPredicate(std::move(copy)).status());
  }
  auto intern = [&](ConstantId id, const std::string& type) {
    return out.program.symbols().Intern(src.symbols().SymbolName(id), type);
  };
  for (const Clause& c : src.clauses()) {
    Clause copy = c;
    for (Literal& lit : copy.literals) {
      const Predicate& pred = src.predicate(lit.pred);
      for (size_t i = 0; i < lit.args.size(); ++i) {
        if (!lit.args[i].is_var) {
          lit.args[i].id = intern(lit.args[i].id, pred.arg_types[i]);
        }
      }
    }
    for (EqualityConstraint& eq : copy.equalities) {
      for (Term* t : {&eq.lhs, &eq.rhs}) {
        if (!t->is_var) t->id = intern(t->id, "_const");
      }
    }
    TUFFY_RETURN_IF_ERROR(out.program.AddClause(std::move(copy)));
  }
  for (const EvidenceLine& line : lines) {
    const Predicate& pred = src.predicate(line.atom.pred);
    GroundAtom atom;
    atom.pred = line.atom.pred;
    for (size_t i = 0; i < line.atom.args.size(); ++i) {
      atom.args.push_back(intern(line.atom.args[i], pred.arg_types[i]));
    }
    out.evidence.Add(std::move(atom), line.truth);
  }
  return out;
}

std::string CompareToSource(const Dataset& source,
                            const MlnProgram& parsed_program,
                            const EvidenceDb& parsed_evidence) {
  const MlnProgram& src = source.program;
  const auto& sym_a = src.symbols();
  const auto& sym_b = parsed_program.symbols();
  if (src.num_predicates() != parsed_program.num_predicates()) {
    return "predicate count differs";
  }
  std::set<std::string> types = {"_const"};
  for (size_t p = 0; p < src.num_predicates(); ++p) {
    const Predicate& a = src.predicate(static_cast<int>(p));
    const Predicate& b = parsed_program.predicate(static_cast<int>(p));
    if (a.name != b.name || a.arg_types != b.arg_types ||
        a.closed_world != b.closed_world) {
      return "predicate " + a.name + " differs";
    }
    types.insert(a.arg_types.begin(), a.arg_types.end());
  }
  auto same_term = [&](const Term& x, const Term& y) {
    if (x.is_var != y.is_var) return false;
    if (x.is_var) return x.id == y.id;
    return sym_a.SymbolName(x.id) == sym_b.SymbolName(y.id);
  };
  if (src.clauses().size() != parsed_program.clauses().size()) {
    return "clause count differs";
  }
  for (size_t i = 0; i < src.clauses().size(); ++i) {
    const Clause& a = src.clauses()[i];
    const Clause& b = parsed_program.clauses()[i];
    const std::string where = "clause " + std::to_string(i) + ": ";
    if (a.weight != b.weight || a.hard != b.hard) return where + "weight";
    if (a.num_vars != b.num_vars || a.var_names != b.var_names ||
        a.existential_vars != b.existential_vars) {
      return where + "variables";
    }
    if (a.literals.size() != b.literals.size() ||
        a.equalities.size() != b.equalities.size()) {
      return where + "shape";
    }
    for (size_t l = 0; l < a.literals.size(); ++l) {
      const Literal& x = a.literals[l];
      const Literal& y = b.literals[l];
      if (x.pred != y.pred || x.positive != y.positive) return where + "literal";
      for (size_t k = 0; k < x.args.size(); ++k) {
        if (!same_term(x.args[k], y.args[k])) return where + "term";
      }
    }
    for (size_t e = 0; e < a.equalities.size(); ++e) {
      const EqualityConstraint& x = a.equalities[e];
      const EqualityConstraint& y = b.equalities[e];
      if (x.equal != y.equal || !same_term(x.lhs, y.lhs) ||
          !same_term(x.rhs, y.rhs)) {
        return where + "equality";
      }
    }
  }
  for (const std::string& type : types) {
    std::set<std::string> da, db;
    for (ConstantId c : sym_a.Domain(type)) da.insert(sym_a.SymbolName(c));
    for (ConstantId c : sym_b.Domain(type)) db.insert(sym_b.SymbolName(c));
    if (da != db) return "domain of type " + type + " differs";
  }
  if (source.evidence.num_evidence() != parsed_evidence.num_evidence()) {
    return "evidence count differs";
  }
  for (const auto& [atom, truth] : source.evidence.entries()) {
    GroundAtom mapped;
    mapped.pred = atom.pred;
    for (ConstantId c : atom.args) {
      mapped.args.push_back(sym_b.Find(sym_a.SymbolName(c)));
    }
    auto it = parsed_evidence.entries().find(mapped);
    if (it == parsed_evidence.entries().end() || it->second != truth) {
      return "evidence entry differs";
    }
  }
  return "";
}

}  // namespace perfbench

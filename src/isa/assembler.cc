#include "svr4proc/isa/assembler.h"

#include <cctype>
#include <cstring>
#include <optional>
#include <vector>

#include "svr4proc/isa/isa.h"

namespace svr4 {
namespace {

enum class Section { kText, kData, kBss };

// Where a label or fixup lives.
struct SecOff {
  Section sec;
  uint32_t off;
};

struct PendingRef {
  SecOff at;          // where the 32-bit absolute value must be patched
  std::string expr;   // label or label+n / label-n
  int line;
};

// Mnemonic -> instruction row, built once from the ISA table.
const std::map<std::string_view, const OpInfo*>& MnemonicTable() {
  static const std::map<std::string_view, const OpInfo*> table = [] {
    std::map<std::string_view, const OpInfo*> t;
    for (const OpInfo& row : kIsa) {
      if (row.kind != B_ILL) {
        t.emplace(row.name, &row);
      }
    }
    return t;
  }();
  return table;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// Splits an operand list on top-level commas (commas inside quotes or
// brackets do not split).
std::vector<std::string> SplitOperands(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  bool in_quote = false;
  int bracket = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_quote) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '"') {
        in_quote = false;
      }
      continue;
    }
    if (c == '"') {
      in_quote = true;
      cur += c;
    } else if (c == '[') {
      ++bracket;
      cur += c;
    } else if (c == ']') {
      --bracket;
      cur += c;
    } else if (c == ',' && bracket == 0) {
      out.push_back(std::string(Trim(cur)));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cur = std::string(Trim(cur));
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

std::optional<int> ParseReg(std::string_view tok) {
  if (tok == "sp") {
    return kRegSp;
  }
  if (tok == "fp") {
    return kRegFp;
  }
  if (tok.size() >= 2 && (tok[0] == 'r' || tok[0] == 'R')) {
    int v = 0;
    for (size_t i = 1; i < tok.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(tok[i]))) {
        return std::nullopt;
      }
      v = v * 10 + (tok[i] - '0');
    }
    if (v < kNumRegs) {
      return v;
    }
  }
  return std::nullopt;
}

std::optional<int> ParseFreg(std::string_view tok) {
  if (tok.size() >= 2 && (tok[0] == 'f' || tok[0] == 'F') && tok != "fp") {
    int v = 0;
    for (size_t i = 1; i < tok.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(tok[i]))) {
        return std::nullopt;
      }
      v = v * 10 + (tok[i] - '0');
    }
    if (v < kNumFpRegs) {
      return v;
    }
  }
  return std::nullopt;
}

std::optional<int64_t> ParseNumber(std::string_view tok) {
  if (tok.empty()) {
    return std::nullopt;
  }
  if (tok.size() >= 3 && tok.front() == '\'' && tok.back() == '\'') {
    if (tok.size() == 3) {
      return static_cast<int64_t>(tok[1]);
    }
    if (tok.size() == 4 && tok[1] == '\\') {
      switch (tok[2]) {
        case 'n':
          return '\n';
        case 't':
          return '\t';
        case '0':
          return 0;
        case '\\':
          return '\\';
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }
  bool neg = false;
  size_t i = 0;
  if (tok[0] == '-') {
    neg = true;
    i = 1;
  } else if (tok[0] == '+') {
    i = 1;
  }
  if (i >= tok.size()) {
    return std::nullopt;
  }
  int64_t v = 0;
  if (tok.size() > i + 2 && tok[i] == '0' && (tok[i + 1] == 'x' || tok[i + 1] == 'X')) {
    for (size_t j = i + 2; j < tok.size(); ++j) {
      char c = tok[j];
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        return std::nullopt;
      }
      v = v * 16 + d;
    }
  } else {
    for (size_t j = i; j < tok.size(); ++j) {
      if (!std::isdigit(static_cast<unsigned char>(tok[j]))) {
        return std::nullopt;
      }
      v = v * 10 + (tok[j] - '0');
    }
  }
  return neg ? -v : v;
}

bool ParseString(std::string_view tok, std::string* out) {
  if (tok.size() < 2 || tok.front() != '"' || tok.back() != '"') {
    return false;
  }
  out->clear();
  for (size_t i = 1; i + 1 < tok.size(); ++i) {
    char c = tok[i];
    if (c == '\\' && i + 2 < tok.size()) {
      char e = tok[++i];
      switch (e) {
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case '0':
          out->push_back('\0');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '"':
          out->push_back('"');
          break;
        default:
          out->push_back(e);
          break;
      }
    } else {
      out->push_back(c);
    }
  }
  return true;
}

struct Emitter {
  std::vector<uint8_t> text;
  std::vector<uint8_t> data;
  uint32_t bss_size = 0;
  Section cur = Section::kText;

  std::vector<uint8_t>* buf() { return cur == Section::kText ? &text : &data; }
  uint32_t offset() const {
    switch (cur) {
      case Section::kText:
        return static_cast<uint32_t>(text.size());
      case Section::kData:
        return static_cast<uint32_t>(data.size());
      case Section::kBss:
        return bss_size;
    }
    return 0;
  }
  void Byte(uint8_t b) { buf()->push_back(b); }
  void U16(uint16_t v) {
    Byte(static_cast<uint8_t>(v & 0xFF));
    Byte(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      Byte(static_cast<uint8_t>(v >> (i * 8)));
    }
  }
};

}  // namespace

Assembler::Assembler(AsmOptions opts) : opts_(opts) {}

void Assembler::Define(std::string name, uint32_t value) {
  predefined_[std::move(name)] = value;
}

void Assembler::ImportLibrary(const Aout& lib_image, std::string lib_name) {
  for (const auto& s : lib_image.symbols) {
    predefined_[s.name] = s.value;
  }
  lib_name_ = std::move(lib_name);
}

Result<Aout> Assembler::Assemble(std::string_view source) {
  error_.clear();
  Emitter em;
  std::map<std::string, SecOff, std::less<>> labels;
  std::map<std::string, uint32_t, std::less<>> equates = predefined_;
  std::vector<PendingRef> refs;
  std::string entry_label;
  std::string lib = lib_name_;

  auto fail = [this](int line, const std::string& msg) -> Errno {
    error_ = "line " + std::to_string(line) + ": " + msg;
    return Errno::kEINVAL;
  };

  // Resolves an expression that must be a plain number right now (no labels).
  auto number_now = [&equates](std::string_view tok) -> std::optional<int64_t> {
    if (auto n = ParseNumber(tok)) {
      return n;
    }
    auto it = equates.find(tok);
    if (it != equates.end()) {
      return static_cast<int64_t>(it->second);
    }
    return std::nullopt;
  };

  int line_no = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    size_t eol = source.find('\n', pos);
    std::string_view line =
        source.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = (eol == std::string_view::npos) ? source.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments (outside quotes).
    {
      bool q = false;
      size_t cut = line.size();
      for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '"') {
          q = !q;
        } else if (!q && (c == ';' || c == '#')) {
          cut = i;
          break;
        }
      }
      line = line.substr(0, cut);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }

    // Labels (possibly several, though one is typical).
    while (true) {
      size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        break;
      }
      std::string_view name = Trim(line.substr(0, colon));
      bool ident = !name.empty();
      for (char c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.')) {
          ident = false;
        }
      }
      if (!ident || name.find('"') != std::string_view::npos) {
        break;  // not a label (e.g. a char literal with ':')
      }
      if (labels.count(name) || equates.count(name)) {
        return fail(line_no, "duplicate label '" + std::string(name) + "'");
      }
      labels[std::string(name)] = SecOff{em.cur, em.offset()};
      line = Trim(line.substr(colon + 1));
      if (line.empty()) {
        break;
      }
    }
    if (line.empty()) {
      continue;
    }

    // Mnemonic / directive and operand string.
    size_t sp = line.find_first_of(" \t");
    std::string_view head = line.substr(0, sp);
    std::string_view rest = sp == std::string_view::npos ? std::string_view{} : Trim(line.substr(sp));
    std::vector<std::string> ops = SplitOperands(rest);

    if (head[0] == '.') {
      if (head == ".text") {
        em.cur = Section::kText;
      } else if (head == ".data") {
        em.cur = Section::kData;
      } else if (head == ".bss") {
        em.cur = Section::kBss;
      } else if (head == ".entry") {
        if (ops.size() != 1) {
          return fail(line_no, ".entry needs one label");
        }
        entry_label = ops[0];
      } else if (head == ".lib") {
        std::string s;
        if (ops.size() != 1 || !ParseString(ops[0], &s)) {
          return fail(line_no, ".lib needs a quoted name");
        }
        lib = s;
      } else if (head == ".equ") {
        if (ops.size() != 2) {
          return fail(line_no, ".equ needs name, value");
        }
        auto v = number_now(ops[1]);
        if (!v) {
          return fail(line_no, "bad .equ value '" + ops[1] + "'");
        }
        equates[ops[0]] = static_cast<uint32_t>(*v);
      } else if (head == ".word") {
        if (em.cur == Section::kBss) {
          return fail(line_no, ".word not allowed in .bss");
        }
        for (const auto& op : ops) {
          if (auto v = number_now(op)) {
            em.U32(static_cast<uint32_t>(*v));
          } else {
            refs.push_back({SecOff{em.cur, em.offset()}, op, line_no});
            em.U32(0);
          }
        }
      } else if (head == ".byte") {
        if (em.cur == Section::kBss) {
          return fail(line_no, ".byte not allowed in .bss");
        }
        for (const auto& op : ops) {
          auto v = number_now(op);
          if (!v) {
            return fail(line_no, "bad .byte value '" + op + "'");
          }
          em.Byte(static_cast<uint8_t>(*v));
        }
      } else if (head == ".ascii" || head == ".asciz") {
        if (em.cur == Section::kBss) {
          return fail(line_no, "strings not allowed in .bss");
        }
        std::string s;
        if (ops.size() != 1 || !ParseString(ops[0], &s)) {
          return fail(line_no, head == ".ascii" ? "bad .ascii" : "bad .asciz");
        }
        for (char c : s) {
          em.Byte(static_cast<uint8_t>(c));
        }
        if (head == ".asciz") {
          em.Byte(0);
        }
      } else if (head == ".space") {
        auto v = ops.size() == 1 ? number_now(ops[0]) : std::nullopt;
        if (!v || *v < 0) {
          return fail(line_no, "bad .space size");
        }
        if (em.cur == Section::kBss) {
          em.bss_size += static_cast<uint32_t>(*v);
        } else {
          for (int64_t i = 0; i < *v; ++i) {
            em.Byte(0);
          }
        }
      } else if (head == ".align") {
        auto v = ops.size() == 1 ? number_now(ops[0]) : std::nullopt;
        if (!v || *v <= 0) {
          return fail(line_no, "bad .align");
        }
        uint32_t a = static_cast<uint32_t>(*v);
        if (em.cur == Section::kBss) {
          em.bss_size = (em.bss_size + a - 1) / a * a;
        } else {
          while (em.offset() % a != 0) {
            em.Byte(0);
          }
        }
      } else {
        return fail(line_no, "unknown directive '" + std::string(head) + "'");
      }
      continue;
    }

    // Instruction.
    if (em.cur != Section::kText) {
      return fail(line_no, "instructions only allowed in .text");
    }
    auto mit = MnemonicTable().find(head);
    if (mit == MnemonicTable().end()) {
      return fail(line_no, "unknown mnemonic '" + std::string(head) + "'");
    }
    const OpInfo& m = *mit->second;

    // Immediate operand: number, equate, or label expression (fixed up later).
    auto emit_imm32 = [&](const std::string& op) {
      if (auto v = number_now(op)) {
        em.U32(static_cast<uint32_t>(*v));
      } else {
        refs.push_back({SecOff{em.cur, em.offset()}, op, line_no});
        em.U32(0);
      }
    };

    em.Byte(m.opcode);
    switch (m.form) {
      case OpForm::kNone:
        if (!ops.empty()) {
          return fail(line_no, "'" + std::string(head) + "' takes no operands");
        }
        break;
      case OpForm::kRR:
      case OpForm::kFF:
      case OpForm::kRF:
      case OpForm::kFR: {
        // Two registers packed (first << 4) | second; the form says which
        // of them are floating-point registers.
        const bool f1 = m.form == OpForm::kFF || m.form == OpForm::kFR;
        const bool f2 = m.form == OpForm::kFF || m.form == OpForm::kRF;
        auto parse = [](bool f, const std::string& tok) {
          return f ? ParseFreg(tok) : ParseReg(tok);
        };
        auto a = ops.size() == 2 ? parse(f1, ops[0]) : std::nullopt;
        auto b = ops.size() == 2 ? parse(f2, ops[1]) : std::nullopt;
        if (!a || !b) {
          return fail(line_no, std::string("expected '") + (f1 ? "fd" : "rd") + ", " +
                                   (f2 ? "fs" : "rs") + "'");
        }
        em.Byte(static_cast<uint8_t>((*a << 4) | *b));
        break;
      }
      case OpForm::kRI: {
        auto rd = ops.size() == 2 ? ParseReg(ops[0]) : std::nullopt;
        if (!rd) {
          return fail(line_no, "expected 'rd, imm'");
        }
        em.Byte(static_cast<uint8_t>(*rd));
        emit_imm32(ops[1]);
        break;
      }
      case OpForm::kMem: {
        if (ops.size() != 2) {
          return fail(line_no, "expected 'rv, [ra+off]'");
        }
        auto rv = ParseReg(ops[0]);
        std::string_view memop = ops[1];
        if (!rv || memop.size() < 4 || memop.front() != '[' || memop.back() != ']') {
          return fail(line_no, "expected 'rv, [ra+off]'");
        }
        std::string_view inner = Trim(memop.substr(1, memop.size() - 2));
        size_t op_pos = inner.find_first_of("+-", 1);
        std::string_view reg_tok = Trim(op_pos == std::string_view::npos ? inner : inner.substr(0, op_pos));
        auto ra = ParseReg(reg_tok);
        if (!ra) {
          return fail(line_no, "bad base register in memory operand");
        }
        int32_t off = 0;
        if (op_pos != std::string_view::npos) {
          std::string off_tok(Trim(inner.substr(op_pos)));  // includes sign
          auto v = number_now(off_tok);
          if (!v) {
            // allow "+name" with equate
            auto v2 = number_now(std::string_view(off_tok).substr(1));
            if (!v2) {
              return fail(line_no, "bad offset in memory operand");
            }
            off = static_cast<int32_t>(*v2);
            if (off_tok[0] == '-') {
              off = -off;
            }
          } else {
            off = static_cast<int32_t>(*v);
          }
        }
        if (off < -32768 || off > 32767) {
          return fail(line_no, "memory offset out of range");
        }
        em.Byte(static_cast<uint8_t>((*rv << 4) | *ra));
        em.U16(static_cast<uint16_t>(static_cast<int16_t>(off)));
        break;
      }
      case OpForm::kJump: {
        if (ops.size() != 1) {
          return fail(line_no, "expected one target");
        }
        emit_imm32(ops[0]);
        break;
      }
      case OpForm::kReg: {
        auto r = ops.size() == 1 ? ParseReg(ops[0]) : std::nullopt;
        if (!r) {
          return fail(line_no, "expected one register");
        }
        em.Byte(static_cast<uint8_t>(*r));
        break;
      }
      case OpForm::kFI: {
        auto fd = ops.size() == 2 ? ParseFreg(ops[0]) : std::nullopt;
        if (!fd) {
          return fail(line_no, "expected 'fd, literal'");
        }
        char* end = nullptr;
        double v = std::strtod(ops[1].c_str(), &end);
        if (end == ops[1].c_str() || *end != '\0') {
          return fail(line_no, "bad float literal");
        }
        em.Byte(static_cast<uint8_t>(*fd));
        uint8_t raw[8];
        std::memcpy(raw, &v, 8);
        for (uint8_t b : raw) {
          em.Byte(b);
        }
        break;
      }
    }
  }

  // Lay out sections and resolve symbols.
  Aout out;
  out.text_vaddr = opts_.text_base;
  out.text = std::move(em.text);
  uint32_t data_base = opts_.text_base + static_cast<uint32_t>(out.text.size());
  data_base = (data_base + opts_.data_align - 1) / opts_.data_align * opts_.data_align;
  if (data_base == opts_.text_base) {
    data_base += opts_.data_align;  // keep data distinct even for empty text
  }
  out.data_vaddr = data_base;
  out.data = std::move(em.data);
  out.bss_vaddr = (out.data_vaddr + static_cast<uint32_t>(out.data.size()) + 3u) & ~3u;
  out.bss_size = em.bss_size;
  out.lib = lib;

  auto label_vaddr = [&](const SecOff& so) -> uint32_t {
    switch (so.sec) {
      case Section::kText:
        return out.text_vaddr + so.off;
      case Section::kData:
        return out.data_vaddr + so.off;
      case Section::kBss:
        return out.bss_vaddr + so.off;
    }
    return 0;
  };

  auto resolve = [&](std::string_view expr) -> std::optional<uint32_t> {
    // label, label+n, label-n
    size_t op_pos = expr.find_first_of("+-", 1);
    std::string_view base = op_pos == std::string_view::npos ? expr : Trim(expr.substr(0, op_pos));
    int64_t delta = 0;
    if (op_pos != std::string_view::npos) {
      auto v = ParseNumber(Trim(expr.substr(op_pos)));
      if (!v) {
        return std::nullopt;
      }
      delta = *v;
    }
    if (auto it = labels.find(base); it != labels.end()) {
      return static_cast<uint32_t>(label_vaddr(it->second) + delta);
    }
    if (auto it = equates.find(base); it != equates.end()) {
      return static_cast<uint32_t>(it->second + delta);
    }
    return std::nullopt;
  };

  for (const auto& ref : refs) {
    auto v = resolve(ref.expr);
    if (!v) {
      return fail(ref.line, "undefined symbol '" + ref.expr + "'");
    }
    std::vector<uint8_t>& buf = ref.at.sec == Section::kText ? out.text : out.data;
    uint32_t value = *v;
    std::memcpy(buf.data() + ref.at.off, &value, 4);
  }

  // Entry point.
  if (!entry_label.empty()) {
    auto v = resolve(entry_label);
    if (!v) {
      error_ = ".entry label '" + entry_label + "' undefined";
      return Errno::kEINVAL;
    }
    out.entry = *v;
  } else {
    out.entry = out.text_vaddr;
  }

  // Symbol table: every label plus .equ values.
  for (const auto& [name, so] : labels) {
    AoutSymbol s;
    s.name = name;
    s.value = label_vaddr(so);
    s.type = so.sec == Section::kText  ? SymType::kText
             : so.sec == Section::kData ? SymType::kData
                                        : SymType::kBss;
    out.symbols.push_back(std::move(s));
  }
  for (const auto& [name, value] : equates) {
    if (predefined_.count(name)) {
      continue;  // don't re-export imported symbols
    }
    out.symbols.push_back(AoutSymbol{name, value, SymType::kAbs});
  }
  return out;
}

}  // namespace svr4

#include "cgir/passes.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/faults.hpp"
#include "support/strings.hpp"

namespace hcg::cgir {
namespace {

// ---------------------------------------------------------------------------
// Access summaries.
//
// A statement's effect on memory is summarized as a list of (buffer, write,
// range) entries.  Elementwise accesses inside a loop cover exactly the
// loop's iteration domain [begin, end); everything else is treated as
// touching the whole buffer.  Two ranged accesses with disjoint domains
// never alias, which is what lets a scalar remainder loop over [0, off)
// slide past a vector loop over [off, len).
// ---------------------------------------------------------------------------

struct AccessSummary {
  std::string buffer;
  bool write = false;
  bool ranged = false;
  int begin = 0;
  int end = 0;
};

/// Appends every access under `stmt`, all unranged (whole-buffer).
void summarize_conservative(const Stmt& stmt, std::vector<AccessSummary>& out) {
  if (stmt.kind == Stmt::Kind::kText) {
    for (const BufferAccess& access : stmt.accesses) {
      out.push_back({access.buffer, access.write, false, 0, 0});
    }
    return;
  }
  for (const Stmt& line : stmt.body) summarize_conservative(line, out);
}

/// Appends one body line's accesses; elementwise ones are ranged over the
/// enclosing loop's [begin, end) iteration domain.
void summarize_line(const Stmt& line, int begin, int end,
                    std::vector<AccessSummary>& out) {
  for (const BufferAccess& access : line.accesses) {
    if (access.elementwise) {
      out.push_back({access.buffer, access.write, true, begin, end});
    } else {
      out.push_back({access.buffer, access.write, false, 0, 0});
    }
  }
}

std::vector<AccessSummary> summarize(const Stmt& stmt) {
  std::vector<AccessSummary> out;
  if (stmt.kind == Stmt::Kind::kText) {
    summarize_conservative(stmt, out);
    return out;
  }
  for (const Stmt& line : stmt.body) {
    if (line.kind == Stmt::Kind::kText) {
      summarize_line(line, stmt.begin, stmt.end, out);
    } else if (line.strip_mined) {
      // A strip-mined lane loop iterates [0, step) while the enclosing loop
      // strides by step: together they cover exactly the enclosing loop's
      // domain, so its elementwise accesses are ranged at the outer level.
      for (const Stmt& inner : line.body) {
        if (inner.kind == Stmt::Kind::kText) {
          summarize_line(inner, stmt.begin, stmt.end, out);
        } else {
          summarize_conservative(inner, out);
        }
      }
    } else {
      summarize_conservative(line, out);
    }
  }
  return out;
}

bool disjoint(const AccessSummary& a, const AccessSummary& b) {
  return a.ranged && b.ranged && (a.end <= b.begin || b.end <= a.begin);
}

bool conflicts(const std::vector<AccessSummary>& a,
               const std::vector<AccessSummary>& b) {
  for (const AccessSummary& lhs : a) {
    for (const AccessSummary& rhs : b) {
      if (lhs.buffer != rhs.buffer) continue;
      if (!lhs.write && !rhs.write) continue;
      if (disjoint(lhs, rhs)) continue;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Loop fusion.
// ---------------------------------------------------------------------------

bool same_shape(const Stmt& a, const Stmt& b) {
  return a.begin == b.begin && a.end == b.end && a.step == b.step &&
         a.vector_loop == b.vector_loop &&
         a.single_iteration == b.single_iteration;
}

const std::string* read_buffer(const Stmt& line) {
  for (const BufferAccess& access : line.accesses) {
    if (!access.write) return &access.buffer;
  }
  return nullptr;
}

const std::string* write_buffer(const Stmt& line) {
  for (const BufferAccess& access : line.accesses) {
    if (access.write) return &access.buffer;
  }
  return nullptr;
}

std::set<std::string> stored_buffers(const Stmt& loop) {
  std::set<std::string> stored;
  for (const Stmt& line : loop.body) {
    if (!line.is_store) continue;
    if (const std::string* buf = write_buffer(line)) stored.insert(*buf);
  }
  return stored;
}

/// Flattens one body line's accesses to the enclosing loop's iteration
/// level.  A strip-mined child loop's elementwise accesses cover the same
/// per-iteration footprint as a direct elementwise access, so they keep the
/// tag; accesses inside any other nested loop conservatively lose it.
void effective_accesses(const Stmt& line, bool elementwise_ok,
                        std::vector<BufferAccess>& out) {
  if (line.kind == Stmt::Kind::kText) {
    for (const BufferAccess& access : line.accesses) {
      out.push_back({access.buffer, access.write,
                     elementwise_ok && access.elementwise});
    }
    return;
  }
  for (const Stmt& child : line.body) {
    effective_accesses(child, elementwise_ok && line.strip_mined, out);
  }
}

std::vector<BufferAccess> body_accesses(const Stmt& loop) {
  std::vector<BufferAccess> out;
  for (const Stmt& line : loop.body) effective_accesses(line, true, out);
  return out;
}

/// Merging `later` into `earlier` preserves semantics when every buffer the
/// two bodies share (with at least one write) is accessed elementwise on
/// both sides: with identical iteration domains, running the bodies
/// back-to-back per iteration sees exactly the values the separate loops
/// saw.  Local-variable collisions are allowed only when forwarding or
/// deduplication is guaranteed to remove the colliding line.
bool merge_compatible(const Stmt& earlier, const Stmt& later) {
  const std::vector<BufferAccess> earlier_accesses = body_accesses(earlier);
  const std::vector<BufferAccess> later_accesses = body_accesses(later);
  for (const BufferAccess& lhs : earlier_accesses) {
    for (const BufferAccess& rhs : later_accesses) {
      if (lhs.buffer != rhs.buffer) continue;
      if (!lhs.write && !rhs.write) continue;
      if (!lhs.elementwise || !rhs.elementwise) return false;
    }
  }
  std::map<std::string, const Stmt*> defined;
  for (const Stmt& a : earlier.body) {
    if (!a.defines.empty()) defined.emplace(a.defines, &a);
  }
  std::set<std::string> stored = stored_buffers(earlier);
  for (const Stmt& b : later.body) {
    if (b.defines.empty()) continue;
    auto it = defined.find(b.defines);
    if (it == defined.end()) continue;
    if (b.is_load) {
      const std::string* buf = read_buffer(b);
      if (buf != nullptr && stored.count(*buf)) continue;   // forwarded away
      if (it->second->text == b.text) continue;             // shared load
    }
    return false;
  }
  return true;
}

/// Appends `later`'s body to `earlier`'s, dropping loads that duplicate a
/// load `earlier` already performs (same variable, same text).
void merge_bodies(Stmt& earlier, Stmt&& later, PassStats& stats) {
  // Keep copies, not Stmt pointers: the push_back below grows earlier.body
  // and would invalidate any pointer into it.
  std::map<std::string, std::string> defined;
  for (const Stmt& a : earlier.body) {
    if (!a.defines.empty()) defined.emplace(a.defines, a.text);
  }
  std::set<std::string> stored = stored_buffers(earlier);
  for (Stmt& line : later.body) {
    if (line.is_load && !line.defines.empty()) {
      auto it = defined.find(line.defines);
      const std::string* buf = read_buffer(line);
      if (it != defined.end() && it->second == line.text &&
          (buf == nullptr || !stored.count(*buf))) {
        ++stats.copies_elided;
        continue;
      }
    }
    earlier.body.push_back(std::move(line));
  }
  earlier.banner_actors += later.banner_actors;
}

/// One fusion step: find the first loop that can merge into an earlier
/// same-shape loop.  Intervening statements stay behind the merged loop
/// when independent of the later loop, or hoist above it when independent
/// of the earlier loop and of everything that stays; any other conflict
/// aborts this pairing.
bool try_fuse_once(std::vector<Stmt>& body, PassStats& stats) {
  std::vector<std::vector<AccessSummary>> summaries(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) summaries[i] = summarize(body[i]);

  for (std::size_t p = 0; p < body.size(); ++p) {
    const Stmt& later = body[p];
    if (later.kind != Stmt::Kind::kLoop || !later.fusible) continue;
    for (std::size_t q = p; q-- > 0;) {
      const Stmt& earlier = body[q];
      if (earlier.kind != Stmt::Kind::kLoop || !earlier.fusible) continue;
      if (!same_shape(earlier, later)) continue;

      std::vector<std::size_t> stay;
      std::vector<std::size_t> hoist;
      bool ok = true;
      for (std::size_t m = q + 1; m < p && ok; ++m) {
        if (!conflicts(summaries[m], summaries[p])) {
          stay.push_back(m);
          continue;
        }
        bool can_hoist = !conflicts(summaries[m], summaries[q]);
        for (std::size_t t : stay) {
          if (!can_hoist) break;
          can_hoist = !conflicts(summaries[m], summaries[t]);
        }
        if (can_hoist) {
          hoist.push_back(m);
        } else {
          ok = false;
        }
      }
      if (!ok || !merge_compatible(earlier, later)) continue;

      std::vector<Stmt> rebuilt;
      rebuilt.reserve(body.size() - 1);
      for (std::size_t i = 0; i < q; ++i) rebuilt.push_back(std::move(body[i]));
      for (std::size_t m : hoist) rebuilt.push_back(std::move(body[m]));
      Stmt merged = std::move(body[q]);
      merge_bodies(merged, std::move(body[p]), stats);
      rebuilt.push_back(std::move(merged));
      for (std::size_t m : stay) rebuilt.push_back(std::move(body[m]));
      for (std::size_t i = p + 1; i < body.size(); ++i) {
        rebuilt.push_back(std::move(body[i]));
      }
      body = std::move(rebuilt);
      ++stats.loops_fused;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Copy forwarding.
// ---------------------------------------------------------------------------

/// Vector bodies: a load of a buffer some earlier line in the same body
/// stored is dropped, and uses of the loaded variable are renamed to the
/// stored vector variable.
void apply_rename(Stmt& stmt, const std::string& from, const std::string& to) {
  stmt.text = replace_identifier(stmt.text, from, to);
  if (stmt.stores_var == from) stmt.stores_var = to;
  for (Stmt& child : stmt.body) apply_rename(child, from, to);
}

void forward_vector(Stmt& loop, PassStats& stats) {
  std::map<std::string, std::string> stored;  // buffer -> vector variable
  std::vector<std::pair<std::string, std::string>> renames;
  std::vector<Stmt> rebuilt;
  rebuilt.reserve(loop.body.size());
  for (Stmt& line : loop.body) {
    for (const auto& rename : renames) {
      apply_rename(line, rename.first, rename.second);
    }
    if (line.kind == Stmt::Kind::kLoop) {
      // A nested loop (a strip-mined lane body after cross-scale fusion)
      // may rewrite buffers this pass is tracking; later loads of those
      // buffers must not forward across it.
      std::vector<BufferAccess> nested;
      effective_accesses(line, true, nested);
      for (const BufferAccess& access : nested) {
        if (access.write) stored.erase(access.buffer);
      }
      rebuilt.push_back(std::move(line));
      continue;
    }
    if (line.is_load) {
      const std::string* buf = read_buffer(line);
      if (buf != nullptr) {
        auto it = stored.find(*buf);
        if (it != stored.end()) {
          if (line.defines != it->second) {
            renames.emplace_back(line.defines, it->second);
          }
          ++stats.copies_elided;
          continue;
        }
      }
    }
    if (line.is_store) {
      if (const std::string* buf = write_buffer(line)) {
        stored[*buf] = line.stores_var;
      }
    }
    rebuilt.push_back(std::move(line));
  }
  loop.body = std::move(rebuilt);
}

bool identifier_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Replaces `buf[i]` (token-boundary checked on the left) with `var`.
bool replace_indexed_read(std::string& text, const std::string& buf,
                          const std::string& var) {
  const std::string pattern = buf + "[i]";
  bool changed = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t hit = text.find(pattern, pos);
    if (hit == std::string::npos) break;
    if (hit == 0 || !identifier_char(text[hit - 1])) {
      text.replace(hit, pattern.size(), var);
      pos = hit + var.size();
      changed = true;
    } else {
      pos = hit + 1;
    }
  }
  return changed;
}

/// Scalar remainder bodies: reads of `buf[i]` where an earlier line in the
/// same body stored `buf[i] = var;` become `var` directly.
void forward_scalar(Stmt& loop) {
  std::map<std::string, std::string> stored;  // buffer -> scalar variable
  for (Stmt& line : loop.body) {
    if (line.kind == Stmt::Kind::kLoop) {
      std::vector<BufferAccess> nested;
      effective_accesses(line, true, nested);
      for (const BufferAccess& access : nested) {
        if (access.write) stored.erase(access.buffer);
      }
      continue;
    }
    const std::string* own_store = line.is_store ? write_buffer(line) : nullptr;
    for (const auto& entry : stored) {
      if (own_store != nullptr && *own_store == entry.first) continue;
      if (replace_indexed_read(line.text, entry.first, entry.second)) {
        auto dead = std::remove_if(
            line.accesses.begin(), line.accesses.end(),
            [&](const BufferAccess& access) {
              return !access.write && access.buffer == entry.first;
            });
        line.accesses.erase(dead, line.accesses.end());
      }
    }
    if (line.is_store && own_store != nullptr) {
      stored[*own_store] = line.stores_var;
    }
  }
}

// ---------------------------------------------------------------------------
// Dead handoff-buffer elimination.
// ---------------------------------------------------------------------------

void for_each_stmt(std::vector<Stmt>& body,
                   const std::function<void(Stmt&)>& fn) {
  for (Stmt& stmt : body) {
    fn(stmt);
    if (stmt.kind == Stmt::Kind::kLoop) for_each_stmt(stmt.body, fn);
  }
}

bool buffer_is_read(std::vector<Stmt>& body, const std::string& name) {
  bool read = false;
  for_each_stmt(body, [&](Stmt& stmt) {
    for (const BufferAccess& access : stmt.accesses) {
      if (!access.write && access.buffer == name) read = true;
    }
  });
  return read;
}

/// True when every write to `name` is a pure store line (safe to delete).
bool only_store_writes(std::vector<Stmt>& body, const std::string& name) {
  bool ok = true;
  for_each_stmt(body, [&](Stmt& stmt) {
    for (const BufferAccess& access : stmt.accesses) {
      if (access.write && access.buffer == name && !stmt.is_store) ok = false;
    }
  });
  return ok;
}

int erase_stores(std::vector<Stmt>& body, const std::string& name) {
  int removed = 0;
  for (Stmt& stmt : body) {
    if (stmt.kind == Stmt::Kind::kLoop) removed += erase_stores(stmt.body, name);
  }
  auto dead = std::remove_if(body.begin(), body.end(), [&](const Stmt& stmt) {
    if (stmt.kind != Stmt::Kind::kText || !stmt.is_store) return false;
    const std::string* buf = write_buffer(stmt);
    return buf != nullptr && *buf == name;
  });
  removed += static_cast<int>(body.end() - dead);
  body.erase(dead, body.end());
  return removed;
}

void eliminate_dead_buffers(TranslationUnit& tu, PassStats& stats) {
  for (std::size_t i = 0; i < tu.buffers.size();) {
    const BufferDecl& decl = tu.buffers[i];
    if (!decl.arena_eligible || decl.is_const ||
        buffer_is_read(tu.init.body, decl.name) ||
        buffer_is_read(tu.step.body, decl.name) ||
        !only_store_writes(tu.init.body, decl.name) ||
        !only_store_writes(tu.step.body, decl.name)) {
      ++i;
      continue;
    }
    std::string name = decl.name;
    stats.copies_elided += erase_stores(tu.init.body, name);
    stats.copies_elided += erase_stores(tu.step.body, name);
    tu.buffers.erase(tu.buffers.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats.buffers_eliminated;
  }
}

// ---------------------------------------------------------------------------
// Arena reuse.
// ---------------------------------------------------------------------------

struct LiveRange {
  int first_write = -1;
  int last_access = -1;
};

void record_liveness(std::vector<Stmt>& body, int& position,
                     std::unordered_map<std::string, LiveRange>& ranges) {
  for (Stmt& top : body) {
    for (const AccessSummary& access : summarize(top)) {
      auto it = ranges.find(access.buffer);
      if (it == ranges.end()) continue;
      if (access.write &&
          (it->second.first_write < 0 || position < it->second.first_write)) {
        it->second.first_write = position;
      }
      it->second.last_access = std::max(it->second.last_access, position);
    }
    ++position;
  }
}

struct ArenaSlot {
  std::string ctype;
  std::size_t elem_bytes = 0;
  int components = 0;
  int free_at = -1;
  std::string first_member;  // decl whose position the slot inherits
};

void reuse_arena(TranslationUnit& tu, PassStats& stats) {
  std::unordered_map<std::string, LiveRange> ranges;
  for (const BufferDecl& decl : tu.buffers) {
    if (decl.arena_eligible && !decl.is_const) ranges.emplace(decl.name, LiveRange{});
  }
  if (ranges.empty()) return;
  int position = 0;
  record_liveness(tu.init.body, position, ranges);
  record_liveness(tu.step.body, position, ranges);

  // Process buffers in order of first write so slot intervals stay disjoint.
  std::vector<std::pair<const BufferDecl*, LiveRange>> eligible;
  for (const BufferDecl& decl : tu.buffers) {
    if (!decl.arena_eligible || decl.is_const) continue;
    const LiveRange& range = ranges.at(decl.name);
    if (range.first_write < 0) continue;  // never written
    eligible.emplace_back(&decl, range);
  }
  std::stable_sort(eligible.begin(), eligible.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.first_write < b.second.first_write;
                   });

  std::vector<ArenaSlot> slots;
  std::unordered_map<std::string, std::size_t> slot_of;  // buffer -> slot
  std::size_t before_bytes = 0;
  for (const auto& [decl, range] : eligible) {
    before_bytes += decl->bytes();
    std::size_t chosen = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].ctype == decl->ctype &&
          slots[s].elem_bytes == decl->elem_bytes &&
          slots[s].free_at < range.first_write) {
        chosen = s;
        break;
      }
    }
    if (chosen == slots.size()) {
      slots.push_back({decl->ctype, decl->elem_bytes, 0, -1, decl->name});
    }
    ArenaSlot& slot = slots[chosen];
    slot.components = std::max(slot.components, decl->components);
    slot.free_at = std::max(slot.free_at, range.last_access);
    slot_of[decl->name] = chosen;
  }
  if (slot_of.empty()) return;

  // Pick collision-free slot names.
  std::set<std::string> taken;
  for (const BufferDecl& decl : tu.buffers) {
    if (!slot_of.count(decl.name)) taken.insert(decl.name);
  }
  std::vector<std::string> slot_names;
  int next_id = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::string name;
    do {
      name = "buf" + std::to_string(next_id++);
    } while (taken.count(name));
    taken.insert(name);
    slot_names.push_back(name);
  }

  // Rename every rebound buffer across the whole unit in one walk.
  RenameMap renames;
  for (const auto& [name, slot] : slot_of) renames.emplace(name, slot_names[slot]);
  auto rename = [&](Stmt& stmt) {
    if (stmt.kind != Stmt::Kind::kText) return;
    stmt.text = replace_identifiers(stmt.text, renames);
    for (BufferAccess& access : stmt.accesses) {
      auto it = renames.find(access.buffer);
      if (it != renames.end()) access.buffer = it->second;
    }
  };
  for_each_stmt(tu.init.body, rename);
  for_each_stmt(tu.step.body, rename);

  // Record each rebinding with the live range that justified it, so the
  // verifier can re-check slot disjointness (invisible in the renamed IR).
  // This precedes the rebuild below, which invalidates `eligible`.
  for (const auto& [decl, range] : eligible) {
    stats.arena_bindings.push_back(
        ArenaBinding{slot_names[slot_of.at(decl->name)], decl->name,
                     range.first_write, range.last_access});
  }

  // Rebuild the declaration list: the first member of each slot (in decl
  // order) becomes the slot's declaration; later members disappear.
  std::vector<BufferDecl> rebuilt;
  std::set<std::size_t> declared;
  std::size_t after_bytes = 0;
  for (const BufferDecl& decl : tu.buffers) {
    auto it = slot_of.find(decl.name);
    if (it == slot_of.end()) {
      rebuilt.push_back(decl);
      continue;
    }
    if (!declared.insert(it->second).second) continue;
    const ArenaSlot& slot = slots[it->second];
    BufferDecl merged = decl;
    merged.name = slot_names[it->second];
    merged.components = slot.components;
    rebuilt.push_back(merged);
    after_bytes += merged.bytes();
  }
  tu.buffers = std::move(rebuilt);

  stats.buffers_rebound = static_cast<int>(slot_of.size());
  if (before_bytes > after_bytes) {
    stats.arena_bytes_saved = before_bytes - after_bytes;
  }
}

// ---------------------------------------------------------------------------
// -O2: cross-scale fusion, scalar-loop tiling, coalescing buffer layout.
// ---------------------------------------------------------------------------

/// True for a conventional scalar loop the -O2 passes may restructure:
/// full-range ([0, n) step 1), body entirely single-assignment text lines
/// (no locals, no nested loops), not itself produced by strip-mining.
/// Predicated VLA loops are excluded outright: their runtime stride makes
/// any static reshaping of the iteration domain unsound.
bool plain_scalar_loop(const Stmt& stmt) {
  if (stmt.kind != Stmt::Kind::kLoop || stmt.vector_loop ||
      stmt.single_iteration || stmt.strip_mined || stmt.predicated) {
    return false;
  }
  if (stmt.begin != 0 || stmt.step != 1) return false;
  for (const Stmt& line : stmt.body) {
    if (line.kind != Stmt::Kind::kText || !line.defines.empty()) return false;
  }
  return true;
}

/// Builds the strip-mined lane loop for `source`'s body: iterates k over
/// [0, lanes) with every use of the outer induction variable rewritten to
/// `(i + k)`.  Elementwise tags survive — the per-outer-iteration footprint
/// is still exactly [i, i + lanes).
Stmt make_strip_inner(const Stmt& source, int lanes) {
  Stmt inner;
  inner.kind = Stmt::Kind::kLoop;
  inner.begin = 0;
  inner.end = lanes;
  inner.step = 1;
  inner.strip_mined = true;
  inner.induction_var = "k";
  for (const Stmt& line : source.body) {
    Stmt moved = line;
    moved.text = replace_identifier(moved.text, "i", "(i + k)");
    inner.body.push_back(std::move(moved));
  }
  return inner;
}

/// Cross-scale producer-consumer fusion: a plain scalar loop over [0, n)
/// that could not join a batch region (a scale boundary — the HCG4xx
/// remarks name the reason) strip-mines into the shape of a fusible vector
/// loop over the same width, then the same-shape fuser merges the pair (and
/// the scalar front cover [0, begin) merges with the region's remainder
/// loop).  A strip-mine that does not end in a fusion is rolled back, so
/// the pass never leaves pure strip wrappers behind.
void fuse_cross_scale(std::vector<Stmt>& body, PassStats& stats) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < body.size() && !changed; ++s) {
      if (!plain_scalar_loop(body[s]) || !body[s].fusible) continue;
      for (std::size_t v = 0; v < body.size() && !changed; ++v) {
        if (v == s) continue;
        const Stmt& vec = body[v];
        if (vec.kind != Stmt::Kind::kLoop || !vec.fusible) continue;
        if (!vec.vector_loop && !vec.single_iteration) continue;
        if (vec.step <= 1 || vec.end != body[s].end) continue;

        std::vector<Stmt> backup = body;
        const int fused_before = stats.loops_fused;
        const int elided_before = stats.copies_elided;

        Stmt strip;
        strip.kind = Stmt::Kind::kLoop;
        strip.begin = vec.begin;
        strip.end = vec.end;
        strip.step = vec.step;
        strip.vector_loop = vec.vector_loop;
        strip.single_iteration = vec.single_iteration;
        strip.fusible = true;
        strip.body.push_back(make_strip_inner(body[s], vec.step));

        std::vector<Stmt> pieces;
        if (strip.begin > 0) {
          Stmt front = body[s];  // scalar cover of [0, begin)
          front.end = strip.begin;
          pieces.push_back(std::move(front));
        }
        pieces.push_back(std::move(strip));
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(s));
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(s),
                    std::make_move_iterator(pieces.begin()),
                    std::make_move_iterator(pieces.end()));

        while (try_fuse_once(body, stats)) {
        }
        bool unfused_wrapper = false;
        for (const Stmt& top : body) {
          if (top.kind == Stmt::Kind::kLoop && top.body.size() == 1 &&
              top.body[0].kind == Stmt::Kind::kLoop &&
              top.body[0].strip_mined) {
            unfused_wrapper = true;
          }
        }
        if (stats.loops_fused > fused_before && !unfused_wrapper) {
          ++stats.cross_scale_fused;
          changed = true;
        } else {
          body = std::move(backup);
          stats.loops_fused = fused_before;
          stats.copies_elided = elided_before;
        }
      }
    }
  }
}

/// Chunks each remaining large plain scalar loop into an outer tile loop
/// (stride tile_elems) over a strip-mined constant-trip inner loop, plus a
/// scalar tail for the last partial tile.  The constant inner trip count
/// lets the C compiler unroll and vectorize without runtime remainder
/// checks.  Loops acting as remainder cover for a later vector loop are
/// left alone — the verifier's coverage rule depends on their exact shape.
void tile_plain_loops(std::vector<Stmt>& body, int tile, PassStats& stats) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (!plain_scalar_loop(body[i])) continue;
    const int n = body[i].end;
    if (tile < 2 || n < 2 * tile) continue;
    bool covers_vector = false;
    for (std::size_t j = i + 1; j < body.size(); ++j) {
      if (body[j].kind == Stmt::Kind::kLoop && body[j].vector_loop &&
          body[j].begin == n) {
        covers_vector = true;
      }
    }
    if (covers_vector) continue;

    const int tiled_end = n - n % tile;
    Stmt outer;
    outer.kind = Stmt::Kind::kLoop;
    outer.begin = 0;
    outer.end = tiled_end;
    outer.step = tile;
    outer.vector_loop = true;
    outer.body.push_back(make_strip_inner(body[i], tile));

    std::vector<Stmt> pieces;
    pieces.push_back(std::move(outer));
    if (tiled_end < n) {
      Stmt tail = std::move(body[i]);
      tail.begin = tiled_end;
      pieces.push_back(std::move(tail));
    }
    const std::size_t emitted = pieces.size();
    body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
    body.insert(body.begin() + static_cast<std::ptrdiff_t>(i),
                std::make_move_iterator(pieces.begin()),
                std::make_move_iterator(pieces.end()));
    ++stats.loops_tiled;
    i += emitted - 1;
  }
}

int count_stride1(const std::vector<Stmt>& body) {
  int n = 0;
  for (const Stmt& stmt : body) {
    for (const BufferAccess& access : stmt.accesses) {
      if (access.elementwise) ++n;
    }
    n += count_stride1(stmt.body);
  }
  return n;
}

void collect_buffer_names(const Stmt& stmt, std::vector<std::string>& out) {
  for (const BufferAccess& access : stmt.accesses) out.push_back(access.buffer);
  for (const Stmt& child : stmt.body) collect_buffer_names(child, out);
}

/// Coalescing-aware layout: re-orders the buffer declarations so buffers
/// first co-accessed by the same top-level statement sit adjacent in the
/// static data segment, in first-touch order (fused loops then walk their
/// working set contiguously).  Also counts the stride-1 (elementwise)
/// accesses of the final step body for the codegen.layout metrics.
void coalesce_layout(TranslationUnit& tu, PassStats& stats) {
  std::map<std::string, std::size_t> first_touch;
  std::size_t position = 0;
  auto record = [&](const std::vector<Stmt>& fn_body) {
    for (const Stmt& top : fn_body) {
      std::vector<std::string> names;
      collect_buffer_names(top, names);
      for (std::string& name : names) {
        first_touch.emplace(std::move(name), position);
      }
      ++position;
    }
  };
  record(tu.init.body);
  record(tu.step.body);

  const std::size_t untouched = position;  // sorts after every real touch
  std::vector<BufferDecl> reordered = tu.buffers;
  std::stable_sort(reordered.begin(), reordered.end(),
                   [&](const BufferDecl& a, const BufferDecl& b) {
                     auto ia = first_touch.find(a.name);
                     auto ib = first_touch.find(b.name);
                     const std::size_t ka =
                         ia == first_touch.end() ? untouched : ia->second;
                     const std::size_t kb =
                         ib == first_touch.end() ? untouched : ib->second;
                     return ka < kb;
                   });
  for (std::size_t i = 0; i < reordered.size(); ++i) {
    if (reordered[i].name != tu.buffers[i].name) ++stats.buffers_relocated;
  }
  tu.buffers = std::move(reordered);
  stats.stride1_accesses = count_stride1(tu.step.body);
}

// ---------------------------------------------------------------------------
// -O2: strip-body lane localization.
// ---------------------------------------------------------------------------

bool lane_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Element C type for every array a strip-mined body may index: static
/// buffers from their declarations, plus the I/O pointer locals the emitter
/// opens the step body with ("const int8_t* in_a = (const int8_t*)...;").
std::map<std::string, std::string> lane_array_types(const TranslationUnit& tu) {
  std::map<std::string, std::string> types;
  for (const BufferDecl& decl : tu.buffers) types[decl.name] = decl.ctype;
  for (const Stmt& stmt : tu.step.body) {
    if (stmt.kind != Stmt::Kind::kText) continue;
    const std::vector<std::string> words = split_whitespace(stmt.text);
    std::size_t at = 0;
    if (at < words.size() && words[at] == "const") ++at;
    if (at + 2 >= words.size()) continue;
    std::string ctype = words[at];
    if (ctype.size() < 2 || ctype.back() != '*') continue;
    ctype.pop_back();
    if (words[at + 2] == "=" && is_identifier(words[at + 1])) {
      types[words[at + 1]] = ctype;
    }
  }
  return types;
}

/// Arrays a strip body touches, in first-appearance order.  An array in
/// `written` but not `read` is fully overwritten by the lane loop (every
/// line runs unconditionally for every lane), so it needs no copy-in.
struct StripArrays {
  std::vector<std::string> names;
  std::set<std::string> read;
  std::set<std::string> written;
};

/// Collects the arrays `strip`'s body indexes, requiring every bracketed
/// index to be exactly `[(<outer_iv> + <lane_iv>)]` on a known array and the
/// induction variables to appear nowhere else.  Returns false when the body
/// does anything the lane rewrite cannot represent.
bool collect_strip_arrays(const Stmt& strip, const std::string& outer_iv,
                          const std::map<std::string, std::string>& types,
                          StripArrays& out) {
  const std::string index = "[(" + outer_iv + " + " + strip.induction_var + ")]";
  for (const Stmt& line : strip.body) {
    if (line.kind != Stmt::Kind::kText || !line.defines.empty()) return false;
    const std::string& text = line.text;
    std::string residual;
    std::size_t pos = 0;
    bool first_access = true;
    while (pos < text.size()) {
      const std::size_t open = text.find('[', pos);
      if (open == std::string::npos) {
        residual += text.substr(pos);
        break;
      }
      if (text.compare(open, index.size(), index) != 0) return false;
      std::size_t start = open;
      while (start > pos && lane_ident_char(text[start - 1])) --start;
      if (start == open) return false;  // no array name before the bracket
      const std::string name = text.substr(start, open - start);
      if (types.find(name) == types.end()) return false;
      if (std::find(out.names.begin(), out.names.end(), name) ==
          out.names.end()) {
        out.names.push_back(name);
      }
      // LHS of an assignment marks the array written; a compound op (`+=`)
      // and every other position read it.
      bool is_plain_lhs = false;
      if (first_access && start == 0) {
        std::size_t q = open + index.size();
        while (q < text.size() && text[q] == ' ') ++q;
        const bool compound =
            q + 1 < text.size() && text[q + 1] == '=' &&
            std::string_view("+-*/%&|^").find(text[q]) != std::string_view::npos;
        const bool plain = q < text.size() && text[q] == '=' &&
                           (q + 1 >= text.size() || text[q + 1] != '=');
        if (compound || plain) out.written.insert(name);
        is_plain_lhs = plain;
      }
      if (!is_plain_lhs) out.read.insert(name);
      first_access = false;
      residual += text.substr(pos, start - pos);
      pos = open + index.size();
    }
    // The induction variables must not survive outside the rewritten
    // indexes (an address computation the lane buffers would not cover).
    if (replace_identifier(residual, outer_iv, "@") != residual) return false;
    if (replace_identifier(residual, strip.induction_var, "@") != residual) {
      return false;
    }
  }
  return !out.names.empty();
}

/// Rewrites each qualifying strip-mined lane loop under `loop` to compute
/// through fixed-size local lane buffers:
///
///   int8_t ln0_src[16];  int8_t ln0_dst[16];
///   memcpy(ln0_src, &src[i], sizeof(ln0_src));      /* block copy in  */
///   for (int k = 0; k < 16; ++k)
///     ln0_dst[k] = ln0_src[k] * ...;                /* alias-free     */
///   memcpy(&dst[i], ln0_dst, sizeof(ln0_dst));      /* block copy out */
///
/// Two effects on the host compiler's code: the lane loop runs over distinct
/// locals with a constant trip count (no runtime alias checks, so it
/// vectorizes even under conservative -O2 cost models), and the shared
/// buffers are only ever touched by full-width block copies (scalar byte
/// stores between the surrounding vector loads/stores defeat store-to-load
/// forwarding).  Access metadata stays on the lane-loop lines — the memory
/// footprint is unchanged, only the path the bytes take through it.
void localize_strips_under(Stmt& loop,
                           const std::map<std::string, std::string>& types,
                           int& next_id, PassStats& stats) {
  for (std::size_t j = 0; j < loop.body.size(); ++j) {
    Stmt& child = loop.body[j];
    if (child.kind != Stmt::Kind::kLoop) continue;
    if (!child.strip_mined) {
      localize_strips_under(child, types, next_id, stats);
      continue;
    }
    if (child.begin != 0 || child.step != 1 || child.end <= 0) continue;
    StripArrays arrays;
    if (!collect_strip_arrays(child, loop.induction_var, types, arrays)) {
      continue;
    }
    const std::string prefix = "ln" + std::to_string(next_id++) + "_";
    const std::string index =
        "[(" + loop.induction_var + " + " + child.induction_var + ")]";
    const std::string lanes = std::to_string(child.end);
    std::vector<Stmt> before;
    std::vector<Stmt> after;
    for (const std::string& name : arrays.names) {
      const std::string tmp = prefix + name;
      before.push_back(
          Stmt::text_line(types.at(name) + " " + tmp + "[" + lanes + "];"));
    }
    for (const std::string& name : arrays.names) {
      const std::string tmp = prefix + name;
      if (arrays.read.count(name) > 0) {
        before.push_back(Stmt::text_line("memcpy(" + tmp + ", &" + name + "[" +
                                         loop.induction_var + "], sizeof(" +
                                         tmp + "));"));
      }
      if (arrays.written.count(name) > 0) {
        after.push_back(Stmt::text_line("memcpy(&" + name + "[" +
                                        loop.induction_var + "], " + tmp +
                                        ", sizeof(" + tmp + "));"));
      }
    }
    for (Stmt& line : child.body) {
      for (const std::string& name : arrays.names) {
        const std::string from = name + index;
        const std::string to =
            prefix + name + "[" + child.induction_var + "]";
        std::string rewritten;
        std::size_t pos = 0;
        while (pos < line.text.size()) {
          const std::size_t hit = line.text.find(from, pos);
          if (hit == std::string::npos) {
            rewritten += line.text.substr(pos);
            break;
          }
          if (hit > 0 && lane_ident_char(line.text[hit - 1])) {
            // Longer identifier ending in `name` — not this array.
            rewritten += line.text.substr(pos, hit + name.size() - pos);
            pos = hit + name.size();
            continue;
          }
          rewritten += line.text.substr(pos, hit - pos) + to;
          pos = hit + from.size();
        }
        line.text = std::move(rewritten);
      }
    }
    loop.body.insert(loop.body.begin() + static_cast<std::ptrdiff_t>(j),
                     std::make_move_iterator(before.begin()),
                     std::make_move_iterator(before.end()));
    j += before.size();
    loop.body.insert(loop.body.begin() + static_cast<std::ptrdiff_t>(j + 1),
                     std::make_move_iterator(after.begin()),
                     std::make_move_iterator(after.end()));
    j += after.size();
    ++stats.strips_localized;
  }
}

void localize_strips(TranslationUnit& tu, PassStats& stats) {
  const std::map<std::string, std::string> types = lane_array_types(tu);
  int next_id = 0;
  for (Stmt& stmt : tu.step.body) {
    if (stmt.kind == Stmt::Kind::kLoop) {
      localize_strips_under(stmt, types, next_id, stats);
    }
  }
}

/// "cgir.pass" fault action: deliberately breaks the IR so the after-pass
/// verifier (when installed) must catch it — the broken-pass drill of
/// docs/ROBUSTNESS.md.  Two guaranteed-detectable mutations: the first step
/// loop over-runs its domain by one, and a statement referencing an
/// undeclared buffer appears.
void corrupt_unit(TranslationUnit& tu) {
  Stmt broken = Stmt::text_line("hcg_injected[0] = 1;");
  broken.accesses.push_back(BufferAccess{"hcg_injected", true, false});
  for (Stmt& stmt : tu.step.body) {
    if (stmt.kind == Stmt::Kind::kLoop) {
      stmt.end += 1;
      break;
    }
  }
  tu.step.body.push_back(std::move(broken));
}

}  // namespace

PassStats run_passes(TranslationUnit& tu, const PassOptions& options) {
  PassStats stats;
  auto checkpoint = [&](std::string_view pass) {
    if (faults::probe("cgir.pass", pass) != faults::Action::kNone) {
      corrupt_unit(tu);
    }
    if (options.after_pass) options.after_pass(pass, tu, stats);
  };
  if (options.fuse_loops) {
    while (try_fuse_once(tu.step.body, stats)) {
    }
    checkpoint("fuse_loops");
    if (options.fuse_cross_scale) {
      fuse_cross_scale(tu.step.body, stats);
      checkpoint("fuse_cross_scale");
    }
    for (Stmt& stmt : tu.step.body) {
      if (stmt.kind != Stmt::Kind::kLoop) continue;
      if (stmt.predicated) continue;  // masked loads/stores are not copies
      if (stmt.vector_loop || stmt.single_iteration) {
        forward_vector(stmt, stats);
      } else {
        forward_scalar(stmt);
      }
    }
    checkpoint("forward_copies");
    eliminate_dead_buffers(tu, stats);
    checkpoint("eliminate_dead_buffers");
  }
  if (options.tile_scalar_loops) {
    const int tile = options.tile_elems > 0 ? options.tile_elems : 16;
    tile_plain_loops(tu.step.body, tile, stats);
    checkpoint("tile_loops");
  }
  if (options.reuse_arena) {
    reuse_arena(tu, stats);
    checkpoint("reuse_arena");
  }
  if (options.coalesce_layout) {
    coalesce_layout(tu, stats);
    checkpoint("coalesce_layout");
  }
  if (options.localize_strips) {
    localize_strips(tu, stats);
    checkpoint("localize_strips");
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Profiling instrumentation.
// ---------------------------------------------------------------------------

namespace {

/// Labels end up inside C string literals and JSON; rather than escaping,
/// restrict them to a charset that needs none in either context.
std::string prof_sanitize(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '-' ||
                c == '.' || c == ',' || c == ' ' || c == '(' || c == ')' ||
                c == '[' || c == '+' || c == '*' || c == '/';
    out.push_back(safe ? c : '_');
  }
  return out;
}

long long loop_trips(const Stmt& loop) {
  if (loop.single_iteration) return 1;
  if (loop.step <= 0 || loop.end <= loop.begin) return 0;
  return (static_cast<long long>(loop.end) - loop.begin + loop.step - 1) /
         loop.step;
}

std::string loop_label(const Stmt& loop) {
  if (loop.banner_actors > 0) {
    std::string label = "batch_region(" + std::to_string(loop.banner_actors) +
                        " actors";
    if (!loop.banner_isa.empty()) label += ", " + loop.banner_isa;
    return prof_sanitize(label + ")");
  }
  return "loop(" + std::to_string(loop.begin) + ".." +
         std::to_string(loop.end) + " step " + std::to_string(loop.step) + ")";
}

constexpr std::string_view kIntensiveTagPrefix = "intensive:";

}  // namespace

std::vector<ProfileSite> instrument_profiling(TranslationUnit& tu,
                                              const ProfileOptions& options) {
  std::vector<ProfileSite> sites;
  std::vector<Stmt> rebuilt;
  rebuilt.reserve(tu.step.body.size());
  int loop_count = 0;
  int call_count = 0;
  for (Stmt& stmt : tu.step.body) {
    const bool is_loop = stmt.kind == Stmt::Kind::kLoop;
    const bool is_call =
        stmt.kind == Stmt::Kind::kText &&
        stmt.prof_tag.compare(0, kIntensiveTagPrefix.size(),
                              kIntensiveTagPrefix) == 0;
    if (!is_loop && !is_call) {
      rebuilt.push_back(std::move(stmt));
      continue;
    }
    ProfileSite site;
    if (is_loop) {
      site.id = "L" + std::to_string(loop_count++);
      site.kind = (stmt.vector_loop || stmt.single_iteration ||
                   stmt.predicated)
                      ? "vector"
                      : "scalar";
      site.label = loop_label(stmt);
      site.iters_per_call = loop_trips(stmt);
    } else {
      site.id = "I" + std::to_string(call_count++);
      site.kind = "intensive";
      site.label =
          prof_sanitize(stmt.prof_tag.substr(kIntensiveTagPrefix.size()));
      site.iters_per_call = 1;
    }
    const std::string idx = std::to_string(sites.size());
    rebuilt.push_back(Stmt::text_line("HCG_PROF_ENTER(" + idx + ");"));
    rebuilt.push_back(std::move(stmt));
    rebuilt.push_back(Stmt::text_line(
        "HCG_PROF_LEAVE(" + idx + ", " +
        std::to_string(site.iters_per_call) + ");"));
    sites.push_back(std::move(site));
  }
  tu.step.body = std::move(rebuilt);

  // The counter arrays must have at least one element even for a site-less
  // unit (zero-length arrays are not standard C); the dump loop still runs
  // HCG_PROF_SITES times, so a pad entry is never reported.
  const std::size_t array_len = sites.empty() ? 1 : sites.size();
  std::string ids;
  std::string kinds;
  std::string labels;
  for (const ProfileSite& site : sites) {
    if (!ids.empty()) {
      ids += ", ";
      kinds += ", ";
      labels += ", ";
    }
    ids += "\"" + site.id + "\"";
    kinds += "\"" + site.kind + "\"";
    labels += "\"" + site.label + "\"";
  }
  if (sites.empty()) {
    ids = kinds = labels = "\"\"";
  }

  auto add = [&](std::string line) {
    tu.header_lines.push_back(std::move(line));
  };
  const std::string len = std::to_string(array_len);
  add("");
  add("#ifdef HCG_PROF");
  add("#include <stdint.h>");
  add("#include <stdio.h>");
  add("#include <time.h>");
  add("#define HCG_PROF_SITES " + std::to_string(sites.size()));
  add("static uint64_t hcg_prof_ns[" + len + "];");
  add("static uint64_t hcg_prof_calls[" + len + "];");
  add("static uint64_t hcg_prof_iters[" + len + "];");
  add("static const char* const hcg_prof_site_id[" + len + "] = {" + ids +
      "};");
  add("static const char* const hcg_prof_site_kind[" + len + "] = {" + kinds +
      "};");
  add("static const char* const hcg_prof_site_label[" + len + "] = {" +
      labels + "};");
  add("#if defined(HCG_PROF_RDTSC) && (defined(__x86_64__) || defined(__i386__))");
  add("#define HCG_PROF_CLOCK \"rdtsc\"");
  add("static inline uint64_t hcg_prof_now_ns(void) {");
  add("  uint32_t hcg_prof_lo, hcg_prof_hi;");
  add("  __asm__ __volatile__(\"rdtsc\" : \"=a\"(hcg_prof_lo), \"=d\"(hcg_prof_hi));");
  add("  return ((uint64_t)hcg_prof_hi << 32) | hcg_prof_lo;");
  add("}");
  add("#else");
  add("#define HCG_PROF_CLOCK \"monotonic_ns\"");
  add("static inline uint64_t hcg_prof_now_ns(void) {");
  add("  struct timespec hcg_prof_ts;");
  add("  clock_gettime(CLOCK_MONOTONIC, &hcg_prof_ts);");
  add("  return (uint64_t)hcg_prof_ts.tv_sec * 1000000000u +");
  add("         (uint64_t)hcg_prof_ts.tv_nsec;");
  add("}");
  add("#endif");
  add("#define HCG_PROF_ENTER(idx) const uint64_t hcg_prof_t##idx = hcg_prof_now_ns()");
  add("#define HCG_PROF_LEAVE(idx, n) do { \\");
  add("    hcg_prof_ns[idx] += hcg_prof_now_ns() - hcg_prof_t##idx; \\");
  add("    hcg_prof_calls[idx] += 1u; \\");
  add("    hcg_prof_iters[idx] += (uint64_t)(n); \\");
  add("  } while (0)");
  add("int hcg_prof_dump(const char* path) {");
  add("  FILE* hcg_prof_file = fopen(path, \"w\");");
  add("  if (!hcg_prof_file) return -1;");
  add(R"(  fprintf(hcg_prof_file, "{\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"schema\": \"hcg-profile-v1\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"model\": \")" +
      prof_sanitize(options.model_name) + R"(\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"clock\": \"" HCG_PROF_CLOCK "\",\n");)");
  add(R"(  fprintf(hcg_prof_file, "  \"sites\": [");)");
  add("  for (int hcg_prof_s = 0; hcg_prof_s < HCG_PROF_SITES; ++hcg_prof_s) {");
  add(R"(    fprintf(hcg_prof_file, "%s\n    {\"id\": \"%s\", \"kind\": \"%s\", \"label\": \"%s\",",)");
  add("            hcg_prof_s ? \",\" : \"\", hcg_prof_site_id[hcg_prof_s],");
  add("            hcg_prof_site_kind[hcg_prof_s], hcg_prof_site_label[hcg_prof_s]);");
  add(R"(    fprintf(hcg_prof_file, " \"ns\": %llu, \"calls\": %llu, \"iters\": %llu}",)");
  add("            (unsigned long long)hcg_prof_ns[hcg_prof_s],");
  add("            (unsigned long long)hcg_prof_calls[hcg_prof_s],");
  add("            (unsigned long long)hcg_prof_iters[hcg_prof_s]);");
  add("  }");
  add(R"(  fprintf(hcg_prof_file, "\n  ]\n}\n");)");
  add("  return fclose(hcg_prof_file) == 0 ? 0 : -1;");
  add("}");
  add("#else");
  add("#define HCG_PROF_ENTER(idx)");
  add("#define HCG_PROF_LEAVE(idx, n)");
  add("#endif");

  return sites;
}

}  // namespace hcg::cgir

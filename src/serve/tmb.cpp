#include "serve/tmb.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "fault/fault.hpp"
#include "fault/token_reader.hpp"
#include "macro/model_io.hpp"
#include "util/atomic_io.hpp"

namespace tmm::serve {

namespace {

using fault::ErrorCode;
using fault::FlowError;

/// Node flag bits, identical to the text format (macro/model_io.cpp).
constexpr std::uint32_t kFlagClockRoot = 1u;
constexpr std::uint32_t kFlagInClockNetwork = 2u;
constexpr std::uint32_t kFlagFfClock = 4u;
constexpr std::uint32_t kFlagFfData = 8u;
/// Arc flag bits.
constexpr std::uint32_t kFlagLaunch = 1u;
constexpr std::uint32_t kFlagBakedDerate = 2u;
/// "No table group" sentinel for wire arcs.
constexpr std::uint32_t kNoTables = 0xffffffffu;
/// Luts per ElRf group (el x rf).
constexpr std::uint32_t kGroup =
    static_cast<std::uint32_t>(kNumEl) * static_cast<std::uint32_t>(kNumRf);
/// Record strides, as pack_model writes them.
constexpr std::uint64_t kNodeBytes = 8 * 4 + 8;
constexpr std::uint64_t kPoBytes = 4;
constexpr std::uint64_t kArcBytes = 7 * 4 + 8;
constexpr std::uint64_t kCheckBytes = 4 * 4;
constexpr std::uint64_t kLutBytes = 2 * 4 + 8;
/// Bounded counts: a corrupt header must not turn into a huge
/// allocation before validation catches it.
constexpr std::uint64_t kMaxRecords = 100'000'000;

std::uint32_t crc_table_entry(std::uint32_t i) {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k)
    c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  return c;
}

/// Slice-by-8 tables: t[0] is the byte-wise table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight bytes fold in with
/// eight independent lookups.
struct CrcTable {
  std::uint32_t t[8][256];
  CrcTable() {
    for (std::uint32_t i = 0; i < 256; ++i) t[0][i] = crc_table_entry(i);
    for (int k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  }
};

class ByteWriter {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void bytes(const void* p, std::size_t n) { raw(p, n); }
  std::string take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian reads over an image. A short read()
/// returns false (walk_tmb); u32()/f64() read sections walk_tmb has
/// already sized, and fail() throws kParse at the current offset
/// (unpack_model).
class Cursor {
 public:
  Cursor(std::string_view data, std::size_t pos, std::string_view source = {})
      : data_(data), pos_(pos), source_(source) {}

  template <typename T>
  bool read(T& v) {
    if (sizeof v > remaining()) return false;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return true;
  }
  bool skip(std::uint64_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  double f64() { return take<double>(); }
  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw FlowError(ErrorCode::kParse, "serve.tmb",
                    std::string(source_) + ": " + msg + " (offset " +
                        std::to_string(pos_) + ")");
  }

 private:
  template <typename T>
  T take() {
    T v{};
    if (!read(v)) fail("truncated image");
    return v;
  }

  std::string_view data_;
  std::size_t pos_;
  std::string_view source_;
};

std::uint64_t lut_doubles(const Lut& lut) {
  return lut.slew_index().size() + lut.load_index().size() +
         lut.values().size();
}

void append_lut(const Lut& lut, std::vector<TmbLut>& tabs,
                std::vector<double>& arena) {
  TmbLut rec;
  rec.ni = static_cast<std::uint32_t>(lut.slew_index().size());
  rec.nj = static_cast<std::uint32_t>(lut.load_index().size());
  rec.off = arena.size();
  arena.insert(arena.end(), lut.slew_index().begin(), lut.slew_index().end());
  arena.insert(arena.end(), lut.load_index().begin(), lut.load_index().end());
  arena.insert(arena.end(), lut.values().begin(), lut.values().end());
  tabs.push_back(rec);
}

std::uint32_t append_group(const ElRf<Lut>& group, std::vector<TmbLut>& tabs,
                           std::vector<double>& arena) {
  const std::uint32_t first = static_cast<std::uint32_t>(tabs.size());
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      append_lut(group(el, rf), tabs, arena);
  return first;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  static const CrcTable table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const auto& t = table.t;
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; p += 8, size -= 8) {
    // Little-endian assembly from bytes: the same value on any host.
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint64_t TmbLut::doubles() const noexcept {
  const std::uint64_t values =
      ni == 0 ? 1
              : static_cast<std::uint64_t>(ni) * std::max<std::uint64_t>(nj, 1);
  return ni + nj + values;
}

bool TmbLut::fits(std::uint64_t arena_doubles) const noexcept {
  return off <= arena_doubles && doubles() <= arena_doubles - off;
}

std::string walk_tmb(std::string_view image, TmbLayout& out) {
  out = TmbLayout{};
  // Header first: without a matching magic/version/CRC the payload
  // bytes mean nothing and the section walk would chase noise.
  if (image.size() < kTmbHeaderBytes) return "file shorter than the tmb header";
  if (std::memcmp(image.data(), kTmbMagic, sizeof kTmbMagic) != 0)
    return "not a tmb model (bad magic)";
  Cursor c(image, sizeof kTmbMagic);
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t want_crc = 0;
  c.read(version);
  c.read(payload_size);
  c.read(want_crc);
  if (version != kTmbVersion)
    return "unsupported tmb version " + std::to_string(version);
  if (payload_size != c.remaining())
    return "payload size mismatch (truncated file?)";
  if (crc32(image.data() + c.pos(), c.remaining()) != want_crc)
    return "payload checksum mismatch (corrupt or torn file)";

  std::uint32_t name_len = 0;
  if (!c.read(name_len) || name_len > c.remaining())
    return "truncated design name";
  out.design_name = image.substr(c.pos(), name_len);
  c.skip(name_len);
  std::uint32_t nn = 0, na = 0, nc = 0, npo = 0, strtab_len = 0, ntab = 0;
  std::uint64_t narena = 0;
  if (!c.read(nn) || !c.read(na) || !c.read(nc) || !c.read(npo) ||
      !c.read(strtab_len) || !c.read(ntab) || !c.read(narena))
    return "truncated section-count header";
  if (nn > kMaxRecords || na > kMaxRecords || nc > kMaxRecords ||
      npo > kMaxRecords || ntab > kMaxRecords || narena > kMaxRecords)
    return "implausible record count in header";
  out.records = c.pos();
  if (!c.skip(nn * kNodeBytes) || !c.skip(npo * kPoBytes) ||
      !c.skip(na * kArcBytes) || !c.skip(nc * kCheckBytes))
    return "truncated record section";
  if (ntab * kLutBytes > c.remaining()) return "truncated table section";
  out.tables.resize(ntab);
  for (TmbLut& t : out.tables) {
    c.read(t.ni);
    c.read(t.nj);
    c.read(t.off);
  }
  if (strtab_len > c.remaining()) return "truncated string table";
  out.strtab = image.substr(c.pos(), strtab_len);
  c.skip(strtab_len);
  if (narena > c.remaining() / sizeof(double)) return "truncated double arena";
  if (c.remaining() != narena * sizeof(double))
    return "trailing bytes after the double arena";
  out.arena = c.pos();
  out.arena_doubles = narena;
  out.nodes = nn;
  out.po_loads = npo;
  out.arcs = na;
  out.checks = nc;
  return {};
}

std::string pack_model(const MacroModel& model) {
  const TimingGraph& g = model.graph;

  // Compact live ids exactly like the text writer, so a model that
  // round-trips .macro -> pack keeps record order (and therefore STA
  // relaxation order and floating-point results) bit-for-bit.
  std::vector<NodeId> to_compact(g.num_nodes(), kInvalidId);
  std::vector<NodeId> live_nodes;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.node(n).dead) {
      to_compact[n] = static_cast<NodeId>(live_nodes.size());
      live_nodes.push_back(n);
    }

  std::string strtab;
  std::vector<std::uint32_t> po_loads;
  std::vector<TmbLut> tabs;
  std::vector<double> arena;
  // Size the arena up front: one pass over live surfaces.
  std::uint64_t arena_doubles = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        arena_doubles += lut_doubles((*arc.delay)(el, rf)) +
                         lut_doubles((*arc.out_slew)(el, rf));
  }
  for (const CheckArc& c : g.checks()) {
    if (c.dead) continue;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        arena_doubles += lut_doubles((*c.guard)(el, rf));
  }
  arena.reserve(arena_doubles);

  ByteWriter nodes_w;
  for (const NodeId n : live_nodes) {
    const GraphNode& node = g.node(n);
    std::uint32_t flags = 0;
    if (node.is_clock_root) flags |= kFlagClockRoot;
    if (node.in_clock_network) flags |= kFlagInClockNetwork;
    if (node.is_ff_clock) flags |= kFlagFfClock;
    if (node.is_ff_data) flags |= kFlagFfData;
    nodes_w.u32(static_cast<std::uint32_t>(strtab.size()));
    nodes_w.u32(static_cast<std::uint32_t>(node.name.size()));
    strtab += node.name;
    nodes_w.u32(static_cast<std::uint32_t>(node.role));
    nodes_w.u32(flags);
    nodes_w.u32(node.port_ordinal);
    nodes_w.u32(node.aocv_depth);
    nodes_w.u32(static_cast<std::uint32_t>(po_loads.size()));
    nodes_w.u32(static_cast<std::uint32_t>(node.attached_po_loads.size()));
    nodes_w.f64(node.static_load_ff);
    po_loads.insert(po_loads.end(), node.attached_po_loads.begin(),
                    node.attached_po_loads.end());
  }

  ByteWriter arcs_w;
  std::uint32_t live_arcs = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    ++live_arcs;
    std::uint32_t flags = 0;
    if (arc.is_launch) flags |= kFlagLaunch;
    if (arc.baked_derate) flags |= kFlagBakedDerate;
    arcs_w.u32(to_compact[arc.from]);
    arcs_w.u32(to_compact[arc.to]);
    arcs_w.u32(static_cast<std::uint32_t>(arc.kind));
    arcs_w.u32(static_cast<std::uint32_t>(arc.sense));
    arcs_w.u32(flags);
    if (arc.kind == GraphArcKind::kCell) {
      arcs_w.u32(append_group(*arc.delay, tabs, arena));
      arcs_w.u32(append_group(*arc.out_slew, tabs, arena));
    } else {
      arcs_w.u32(kNoTables);
      arcs_w.u32(kNoTables);
    }
    arcs_w.f64(arc.wire_delay_ps);
  }

  ByteWriter checks_w;
  std::uint32_t live_checks = 0;
  for (const CheckArc& c : g.checks()) {
    if (c.dead) continue;
    ++live_checks;
    checks_w.u32(to_compact[c.clock]);
    checks_w.u32(to_compact[c.data]);
    checks_w.u32(c.is_setup ? 1u : 0u);
    checks_w.u32(append_group(*c.guard, tabs, arena));
  }

  ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(model.design_name.size()));
  payload.bytes(model.design_name.data(), model.design_name.size());
  payload.u32(static_cast<std::uint32_t>(live_nodes.size()));
  payload.u32(live_arcs);
  payload.u32(live_checks);
  payload.u32(static_cast<std::uint32_t>(po_loads.size()));
  payload.u32(static_cast<std::uint32_t>(strtab.size()));
  payload.u32(static_cast<std::uint32_t>(tabs.size()));
  payload.u64(arena.size());
  {
    const std::string nodes = nodes_w.take();
    payload.bytes(nodes.data(), nodes.size());
  }
  for (const std::uint32_t po : po_loads) payload.u32(po);
  {
    const std::string arcs = arcs_w.take();
    payload.bytes(arcs.data(), arcs.size());
    const std::string checks = checks_w.take();
    payload.bytes(checks.data(), checks.size());
  }
  for (const TmbLut& t : tabs) {
    payload.u32(t.ni);
    payload.u32(t.nj);
    payload.u64(t.off);
  }
  payload.bytes(strtab.data(), strtab.size());
  if (!arena.empty())
    payload.bytes(arena.data(), arena.size() * sizeof(double));

  const std::string body = payload.take();
  ByteWriter image;
  image.bytes(kTmbMagic, sizeof kTmbMagic);
  image.u32(kTmbVersion);
  image.u64(body.size());
  image.u32(crc32(body.data(), body.size()));
  std::string out = image.take();
  out += body;
  return out;
}

namespace {

Lut build_lut(const TmbLut& rec, const std::vector<double>& arena,
              Cursor& r) {
  if (!rec.fits(arena.size()))
    r.fail("lut record points outside the double arena");
  const std::uint64_t need = rec.doubles();
  const std::uint64_t nvals = need - rec.ni - rec.nj;
  const double* base = arena.data() + rec.off;
  try {
    if (rec.ni == 0) return Lut::scalar(base[0]);
    std::vector<double> idx1(base, base + rec.ni);
    if (rec.nj == 0)
      return Lut::table1d(std::move(idx1),
                          {base + rec.ni, base + rec.ni + nvals});
    std::vector<double> idx2(base + rec.ni, base + rec.ni + rec.nj);
    return Lut::table2d(std::move(idx1), std::move(idx2),
                        {base + rec.ni + rec.nj, base + need});
  } catch (const std::invalid_argument& e) {
    r.fail(std::string("malformed lut: ") + e.what());
  }
}

ElRf<Lut> build_group(std::uint32_t first, const std::vector<TmbLut>& tabs,
                      const std::vector<double>& arena, Cursor& r) {
  if (first > tabs.size() || kGroup > tabs.size() - first)
    r.fail("table-group reference outside the table section");
  ElRf<Lut> out;
  std::uint32_t i = first;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf)
      out(el, rf) = build_lut(tabs[i++], arena, r);
  return out;
}

}  // namespace

MacroModel unpack_model(const std::string& image, const std::string& source) {
  TmbLayout layout;
  if (const std::string problem = walk_tmb(image, layout); !problem.empty())
    throw FlowError(ErrorCode::kParse, "serve.tmb", source + ": " + problem);
  const std::uint64_t nn = layout.nodes;
  Cursor r(image, layout.records, source);
  MacroModel model;
  model.design_name = layout.design_name;
  TimingGraph& g = model.graph;

  struct NodeRec {
    std::uint32_t name_off, name_len, role, flags, ordinal, depth, po_off,
        po_cnt;
    double static_load;
  };
  std::vector<NodeRec> node_recs(nn);
  for (auto& rec : node_recs) {
    rec.name_off = r.u32();
    rec.name_len = r.u32();
    rec.role = r.u32();
    rec.flags = r.u32();
    rec.ordinal = r.u32();
    rec.depth = r.u32();
    rec.po_off = r.u32();
    rec.po_cnt = r.u32();
    rec.static_load = r.f64();
    if (rec.role > static_cast<std::uint32_t>(NodeRole::kPrimaryOutput))
      r.fail("bad node role " + std::to_string(rec.role));
    if (rec.flags > 15u) r.fail("bad node flags");
  }

  std::vector<std::uint32_t> po_loads(layout.po_loads);
  for (auto& po : po_loads) po = r.u32();

  struct ArcRec {
    std::uint32_t from, to, kind, sense, flags, delay_tab, slew_tab;
    double wire_delay;
  };
  std::vector<ArcRec> arc_recs(layout.arcs);
  for (auto& rec : arc_recs) {
    rec.from = r.u32();
    rec.to = r.u32();
    rec.kind = r.u32();
    rec.sense = r.u32();
    rec.flags = r.u32();
    rec.delay_tab = r.u32();
    rec.slew_tab = r.u32();
    rec.wire_delay = r.f64();
    if (rec.from >= nn || rec.to >= nn)
      r.fail("dangling arc node reference");
    if (rec.kind > static_cast<std::uint32_t>(GraphArcKind::kWire))
      r.fail("bad arc kind");
    if (rec.sense > static_cast<std::uint32_t>(ArcSense::kNonUnate))
      r.fail("bad arc sense");
  }

  struct CheckRec {
    std::uint32_t clock, data, is_setup, guard_tab;
  };
  std::vector<CheckRec> check_recs(layout.checks);
  for (auto& rec : check_recs) {
    rec.clock = r.u32();
    rec.data = r.u32();
    rec.is_setup = r.u32();
    rec.guard_tab = r.u32();
    if (rec.clock >= nn || rec.data >= nn)
      r.fail("dangling check node reference");
    if (rec.is_setup > 1u) r.fail("bad setup flag");
  }

  const std::vector<TmbLut>& tabs = layout.tables;
  const std::string_view strtab = layout.strtab;
  std::vector<double> arena(layout.arena_doubles);
  if (!arena.empty())
    std::memcpy(arena.data(), image.data() + layout.arena,
                arena.size() * sizeof(double));

  for (const NodeRec& rec : node_recs) {
    if (rec.name_off > strtab.size() ||
        rec.name_len > strtab.size() - rec.name_off)
      r.fail("node name outside the string table");
    if (rec.po_off > po_loads.size() ||
        rec.po_cnt > po_loads.size() - rec.po_off)
      r.fail("attached-PO slice outside the PO section");
    GraphNode node;
    node.name = strtab.substr(rec.name_off, rec.name_len);
    node.role = static_cast<NodeRole>(rec.role);
    node.port_ordinal = rec.ordinal;
    node.aocv_depth = rec.depth;
    node.static_load_ff = rec.static_load;
    node.is_clock_root = (rec.flags & kFlagClockRoot) != 0;
    node.in_clock_network = (rec.flags & kFlagInClockNetwork) != 0;
    node.is_ff_clock = (rec.flags & kFlagFfClock) != 0;
    node.is_ff_data = (rec.flags & kFlagFfData) != 0;
    node.attached_po_loads.assign(po_loads.begin() + rec.po_off,
                                  po_loads.begin() + rec.po_off + rec.po_cnt);
    g.add_node(std::move(node));
  }
  if (const fault::Status st = bind_port_ordinals(g); !st.ok())
    r.fail(st.message());

  for (const ArcRec& rec : arc_recs) {
    if (static_cast<GraphArcKind>(rec.kind) == GraphArcKind::kWire) {
      g.add_wire_arc(rec.from, rec.to, rec.wire_delay);
      continue;
    }
    const ElRf<Lut>* dt = g.own_tables(build_group(rec.delay_tab, tabs, arena, r));
    const ElRf<Lut>* st = g.own_tables(build_group(rec.slew_tab, tabs, arena, r));
    const ArcId id =
        g.add_cell_arc(rec.from, rec.to, static_cast<ArcSense>(rec.sense), dt,
                       st, (rec.flags & kFlagLaunch) != 0);
    g.arc(id).baked_derate = (rec.flags & kFlagBakedDerate) != 0;
  }

  for (const CheckRec& rec : check_recs) {
    const ElRf<Lut>* guard = g.own_tables(build_group(rec.guard_tab, tabs, arena, r));
    g.add_check(rec.clock, rec.data, rec.is_setup != 0, guard);
  }

  model.file_size_bytes = image.size();
  return model;
}

std::size_t write_tmb_file(const MacroModel& model, const std::string& path) {
  fault::inject("serve.pack");
  const std::string image = pack_model(model);
  util::atomic_write_file(path, image).or_throw("serve.pack",
                                                model.design_name);
  return image.size();
}

MacroModel read_tmb_file(const std::string& path) {
  fault::inject("serve.load_model");
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw FlowError(ErrorCode::kIo, "serve.load_model", "cannot open " + path);
  return unpack_model(io::read_rest(is), path);
}

}  // namespace tmm::serve

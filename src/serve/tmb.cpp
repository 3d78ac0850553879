#include "serve/tmb.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "fault/fault.hpp"
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

std::uint32_t crc_table_entry(std::uint32_t i) {
  std::uint32_t c = i;
  for (int k = 0; k < 8; ++k)
    c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  return c;
}

struct CrcTable {
  std::uint32_t t[256];
  CrcTable() {
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = crc_table_entry(i);
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

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, const std::string& source)
      : data_(data), size_(size), source_(source) {}

  std::uint32_t u32(const char* what) {
    std::uint32_t v;
    raw(&v, sizeof v, what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v;
    raw(&v, sizeof v, what);
    return v;
  }
  double f64(const char* what) {
    double v;
    raw(&v, sizeof v, what);
    return v;
  }
  void bytes(void* out, std::size_t n, const char* what) {
    raw(out, n, what);
  }
  std::size_t remaining() const noexcept { return size_ - pos_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw FlowError(ErrorCode::kParse, "serve.tmb",
                    source_ + ": " + msg + " (offset " +
                        std::to_string(pos_) + ")");
  }

 private:
  void raw(void* out, std::size_t n, const char* what) {
    if (n > size_ - pos_)
      fail(std::string("truncated image reading ") + what);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const std::string& source_;
};

/// One LUT surface: index sizes plus its offset in the double arena.
struct LutRec {
  std::uint32_t ni = 0;
  std::uint32_t nj = 0;
  std::uint64_t off = 0;
};

std::uint64_t lut_doubles(const Lut& lut) {
  return lut.slew_index().size() + lut.load_index().size() +
         lut.values().size();
}

void append_lut(const Lut& lut, std::vector<LutRec>& tabs,
                std::vector<double>& arena) {
  LutRec rec;
  rec.ni = static_cast<std::uint32_t>(lut.slew_index().size());
  rec.nj = static_cast<std::uint32_t>(lut.load_index().size());
  rec.off = arena.size();
  arena.insert(arena.end(), lut.slew_index().begin(), lut.slew_index().end());
  arena.insert(arena.end(), lut.load_index().begin(), lut.load_index().end());
  arena.insert(arena.end(), lut.values().begin(), lut.values().end());
  tabs.push_back(rec);
}

std::uint32_t append_group(const ElRf<Lut>& group, std::vector<LutRec>& tabs,
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
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    c = table.t[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
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
  std::vector<LutRec> tabs;
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
  for (const LutRec& t : tabs) {
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

/// Bounded counts: a corrupt header must not turn into a huge
/// allocation before validation catches it.
constexpr std::uint64_t kMaxRecords = 100'000'000;

Lut build_lut(const LutRec& rec, const std::vector<double>& arena,
              ByteReader& r) {
  const std::uint64_t nvals =
      rec.ni == 0 ? 1
                  : static_cast<std::uint64_t>(rec.ni) *
                        std::max<std::uint64_t>(rec.nj, 1);
  const std::uint64_t need = rec.ni + rec.nj + nvals;
  if (rec.off > arena.size() || need > arena.size() - rec.off)
    r.fail("lut record points outside the double arena");
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

ElRf<Lut> build_group(std::uint32_t first, const std::vector<LutRec>& tabs,
                      const std::vector<double>& arena, ByteReader& r) {
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
  ByteReader header(image.data(), image.size(), source);
  char magic[4];
  header.bytes(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kTmbMagic, sizeof magic) != 0)
    header.fail("not a tmb model (bad magic)");
  const std::uint32_t version = header.u32("version");
  if (version != kTmbVersion)
    header.fail("unsupported tmb version " + std::to_string(version) +
                " (expected " + std::to_string(kTmbVersion) + ")");
  const std::uint64_t payload_size = header.u64("payload size");
  const std::uint32_t want_crc = header.u32("payload crc");
  if (payload_size != image.size() - kTmbHeaderBytes)
    header.fail("payload size mismatch (header says " +
                std::to_string(payload_size) + ", file has " +
                std::to_string(image.size() - kTmbHeaderBytes) + ")");
  const char* body = image.data() + kTmbHeaderBytes;
  const std::uint32_t have_crc = crc32(body, payload_size);
  if (have_crc != want_crc)
    header.fail("payload checksum mismatch (corrupt or torn file)");

  ByteReader r(body, payload_size, source);
  MacroModel model;
  const std::uint32_t name_len = r.u32("design-name length");
  if (name_len > r.remaining()) r.fail("truncated design name");
  model.design_name.resize(name_len);
  if (name_len > 0) r.bytes(model.design_name.data(), name_len, "design name");

  const std::uint64_t nn = r.u32("node count");
  const std::uint64_t na = r.u32("arc count");
  const std::uint64_t nc = r.u32("check count");
  const std::uint64_t npo = r.u32("attached-PO count");
  const std::uint64_t strtab_len = r.u32("string-table length");
  const std::uint64_t ntab = r.u32("table count");
  const std::uint64_t narena = r.u64("arena length");
  if (nn > kMaxRecords || na > kMaxRecords || nc > kMaxRecords ||
      npo > kMaxRecords || ntab > kMaxRecords || narena > kMaxRecords)
    r.fail("implausible record count in header");

  TimingGraph& g = model.graph;

  struct NodeRec {
    std::uint32_t name_off, name_len, role, flags, ordinal, depth, po_off,
        po_cnt;
    double static_load;
  };
  std::vector<NodeRec> node_recs(nn);
  for (auto& rec : node_recs) {
    rec.name_off = r.u32("node name offset");
    rec.name_len = r.u32("node name length");
    rec.role = r.u32("node role");
    rec.flags = r.u32("node flags");
    rec.ordinal = r.u32("port ordinal");
    rec.depth = r.u32("aocv depth");
    rec.po_off = r.u32("attached-PO offset");
    rec.po_cnt = r.u32("attached-PO count");
    rec.static_load = r.f64("static load");
    if (rec.role > static_cast<std::uint32_t>(NodeRole::kPrimaryOutput))
      r.fail("bad node role " + std::to_string(rec.role));
    if (rec.flags > 15u) r.fail("bad node flags");
  }

  std::vector<std::uint32_t> po_loads(npo);
  for (auto& po : po_loads) po = r.u32("attached PO ordinal");

  struct ArcRec {
    std::uint32_t from, to, kind, sense, flags, delay_tab, slew_tab;
    double wire_delay;
  };
  std::vector<ArcRec> arc_recs(na);
  for (auto& rec : arc_recs) {
    rec.from = r.u32("arc source");
    rec.to = r.u32("arc sink");
    rec.kind = r.u32("arc kind");
    rec.sense = r.u32("arc sense");
    rec.flags = r.u32("arc flags");
    rec.delay_tab = r.u32("delay table ref");
    rec.slew_tab = r.u32("slew table ref");
    rec.wire_delay = r.f64("wire delay");
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
  std::vector<CheckRec> check_recs(nc);
  for (auto& rec : check_recs) {
    rec.clock = r.u32("check clock");
    rec.data = r.u32("check data");
    rec.is_setup = r.u32("setup flag");
    rec.guard_tab = r.u32("guard table ref");
    if (rec.clock >= nn || rec.data >= nn)
      r.fail("dangling check node reference");
    if (rec.is_setup > 1u) r.fail("bad setup flag");
  }

  std::vector<LutRec> tabs(ntab);
  for (auto& t : tabs) {
    t.ni = r.u32("lut slew-axis size");
    t.nj = r.u32("lut load-axis size");
    t.off = r.u64("lut arena offset");
  }

  std::string strtab(strtab_len, '\0');
  if (strtab_len > 0) r.bytes(strtab.data(), strtab_len, "string table");
  std::vector<double> arena(narena);
  if (narena > 0)
    r.bytes(arena.data(), narena * sizeof(double), "double arena");
  if (r.remaining() != 0) r.fail("trailing bytes after the double arena");

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
  std::ostringstream buf;
  buf << is.rdbuf();
  return unpack_model(buf.str(), path);
}

}  // namespace tmm::serve

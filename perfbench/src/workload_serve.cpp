// `serve`: an in-process serve::Server behind a RegistryManager on a
// unix socket, serving .tmb models packed during set-up from the five
// smallest testing designs, under open-loop mixed traffic. Miss
// evaluation (the serial STA engine on macro graphs) dominates it. The
// served designs keep their suite seeds; the benchmark seed drives the
// request stream, so serving figures compare like with like.

#include "workloads.hpp"

namespace pb {

using namespace tmm;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

}  // namespace

Report run_serve(const Args& args) {
  Report r;
  WorkDir work("serve");

  ServeParams params;
  std::vector<double> setups;
  TrainOutcome model;
  std::vector<GenOutcome> models;
  std::vector<std::string> inputs, macros;
  ServeSummary s;
  std::unique_ptr<ServeHarness> h;
  for (int i = 0; i < kSetups; ++i) {
    h.reset();  // a repeated set-up replaces the previous server
    const double t0 = now_s();
    model = setup_model(work.path(), r);
    inputs = write_suite(
        smallest(tau_testing_suite(library(), kServeScale), kServedDesigns),
        work.path());
    models = generate_all(model.weights, inputs, work.path());
    macros.clear();
    for (const GenOutcome& g : models)
      macros.push_back(work.file(g.design + ".macro"));
    h = start_serving(macros, work.path(), args.seed, params, s);
    setups.push_back(now_s() - t0);
  }

  measure_serving(*h, args.seconds, args.trace, s);
  // The first 1000 requests drawn: the ones sent, the seed's stream
  // and the next seed's.
  check_seeded_inputs(h->sent_fingerprint(1000),
                      h->stream_fingerprint(args.seed, 1000),
                      h->stream_fingerprint(args.seed + 1, 1000), r);
  h.reset();
  EndToEnd e;
  e.quality = check_models(models, inputs, macros, r);
  const double flat_ns = sta_ns_per_node(
      build_timing_graph(load_input(inputs.back())),
      2, true);

  r.attempted = s.attempted;
  if (s.failed > 0) r.fail("served responses failed or mismatched", s.failed);
  e.setup_s = median(setups);
  e.wall_s = s.burst_s;
  e.cpu_s = s.burst_cpu_s;
  e.cpu_rel = s.burst_cpu_rel;
  e.peak_rss_mb = s.peak_rss_mb;
  e.gnn_f1 = model.report.train_confusion.f1();
  if (args.trace)
    add_per_layer(r, s, flat_ns, s.traced_burst_s / s.burst_s);
  else
    add_end_to_end(r, e, &s);
  r.note("serve.hit_share_offered", params.hit_share, "ratio");
  r.note("serve.burst_s", s.burst_s, "s");
  return r;
}

}  // namespace pb

// Workload `classic-flood`: the paper's non-anonymous mode (RSA-certified
// attestations, §VI) at marketplace scale on the same TestNet topology.
// Set-up publishes many n=11 tasks from a few requesters. The load is an
// open loop in simulated time: on a fixed seeded schedule, regardless of
// confirmations, the benchmark injects each submission's one-task funding
// transfer and then the submission itself, alternating between the two full
// nodes. Every task settles through Algorithm 1's timeout `finalize` path,
// so this workload never proves and never pairs.

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "auth/classic_auth.h"
#include "chain_handle.h"
#include "layers.h"
#include "store/store.h"
#include "sync_phase.h"
#include "workloads.h"
#include "zebralancer/task_contract.h"

namespace perfbench {

using zl::Bytes;
using zl::Fr;
using zl::Rng;
using zl::chain::Address;
using zl::chain::Transaction;
using zl::chain::Wallet;
using namespace zl::zebralancer;

namespace {

constexpr unsigned kN = 11;  // answers per task = number of workers
constexpr unsigned kRequesters = 2;
const char* const kPolicy = "majority-vote:4";
constexpr std::uint64_t kShare = 1'000'000;
constexpr std::uint64_t kWorkerGas = 3'000'000;
constexpr std::uint64_t kCallGas = 2'000'000;
constexpr std::uint64_t kAnswerDeadlineBlocks = 1'000'000;  // collection ends at n answers
constexpr std::uint64_t kInstructDeadlineBlocks = 2;        // then the timeout path opens
// Quiet blocks after the newest snapshot of the synced chain (see align_tail).
constexpr std::uint64_t kQuietTail = 4;
constexpr std::uint64_t kAwaitMs = 60'000;
// Open-loop arrival rate: submissions per simulated second (Poisson).
constexpr double kArrivalsPerSimSecond = 250.0;
// Reference chunks either side of a submission, on its client's thread,
// whose median scales that submission's CPU time.
constexpr std::size_t kReferenceWindow = 8;
// Span of one task's answers in the schedule, in tasks' worth of arrivals.
constexpr double kAnswerWindowTasks = 8.0;

struct Identity {
  zl::auth::ClassicUserKey key;
  zl::auth::ClassicCertificate cert;
};

struct Task {
  std::unique_ptr<Wallet> wallet;  // alpha_R
  Address address;
  std::uint64_t budget = 0;
  Bytes deploy_hash;
  std::uint64_t deploy_gas_limit = 0;
};

struct Setup {
  std::unique_ptr<TestNet> net;
  std::unique_ptr<ChainHandle> chain;
  std::unique_ptr<Funder> funder;
  std::unique_ptr<zl::RsaPublicKey> mpk;
  std::vector<Identity> workers;
  std::vector<Task> tasks;
  Task probe;  // never settles: hosts the double-submission probe
  double keygen_s = 0;
  bool published = true;
};

/// Reward-circuit keygen (the contract stores its verifying key even though
/// this mode settles by timeout), RA and user RSA keys, topology, and the
/// publication of every task before the timed load.
Setup make_setup(std::uint64_t seed, unsigned num_tasks, Gate& gate) {
  Span phase("phase.setup");
  Setup s;
  Rng rng(seed);
  Rng keygen_rng = rng.fork("keygen");
  Bytes reward_vk;
  {
    Span span("snark.setup");
    const double t0 = now_s();
    reward_vk = reward_setup({kN, kPolicy}, keygen_rng).vk.to_bytes();
    s.keygen_s = now_s() - t0;
  }
  Rng rsa_rng = rng.fork("rsa");
  std::vector<Identity> requesters;
  {
    Span span("crypto.rsa_keygen");
    zl::auth::ClassicRegistrationAuthority ra(rsa_rng);
    s.mpk = std::make_unique<zl::RsaPublicKey>(ra.master_public_key());
    const auto enroll = [&](const std::string& name) {
      zl::auth::ClassicUserKey key = zl::auth::ClassicUserKey::generate(rsa_rng);
      zl::auth::ClassicCertificate cert = ra.certify(name, key.key.pub);
      return Identity{std::move(key), std::move(cert)};
    };
    for (unsigned i = 0; i < kN; ++i) s.workers.push_back(enroll("worker-" + std::to_string(i)));
    for (unsigned i = 0; i < kRequesters; ++i) {
      requesters.push_back(enroll("requester-" + std::to_string(i)));
    }
  }

  TestNet::Config config;
  config.seed = seed * 0x9e3779b97f4a7c15ull + 1;
  s.net = std::make_unique<TestNet>(config);
  s.chain = std::make_unique<ChainHandle>(*s.net);
  Rng funder_rng = rng.fork("funder");
  {
    Span span("chain.fund");
    s.funder = std::make_unique<Funder>(*s.chain, funder_rng, 8, 100'000'000'000ull);
  }

  // Publish: fund every alpha_R in one batch, then deploy every task.
  Span sub("phase.setup.publish");
  Rng task_rng = rng.fork("tasks");
  s.tasks.resize(num_tasks);
  std::vector<Task*> all;
  for (Task& t : s.tasks) all.push_back(&t);
  all.push_back(&s.probe);
  std::vector<Transaction> deploys;
  std::vector<Address> alpha_rs;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Task& t = *all[i];
    const Identity& req = requesters[i % kRequesters];
    t.wallet = std::make_unique<Wallet>(task_rng);
    // A budget that 11 does not always divide, so refunds are exercised.
    t.budget = kShare * kN + task_rng.uniform(kN);
    const Address alpha_r = t.wallet->address();
    t.address = Address::for_contract(alpha_r, 0);
    TaskParams p;
    p.auth_mode = AuthMode::kClassic;
    p.requester_address = alpha_r;
    {
      Span span("auth.classic_authenticate");
      p.requester_attestation =
          zl::auth::classic_authenticate(t.address.to_bytes(), alpha_r.to_bytes(), req.key,
                                         req.cert)
              .to_bytes();
    }
    p.classic_mpk = s.mpk->to_bytes();
    p.budget = t.budget;
    p.epk = TaskEncKeyPair::generate(task_rng).epk.to_bytes();
    p.num_answers = kN;
    p.answer_deadline_blocks = kAnswerDeadlineBlocks;
    p.instruct_deadline_blocks = kInstructDeadlineBlocks;
    p.policy_name = kPolicy;
    p.reward_vk = reward_vk;
    const Bytes ctor = p.to_bytes();
    const std::uint64_t gas = 1'000'000 + 2 * ctor.size();
    Span span("crypto.ecdsa_sign");
    deploys.push_back(t.wallet->make_transaction(Address(), t.budget, gas,
                                                 TaskContract::kContractType, ctor));
    t.deploy_hash = deploys.back().hash();
    t.deploy_gas_limit = gas;
    alpha_rs.push_back(alpha_r);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    s.funder->fund({alpha_rs[i]}, deploys[i].value + deploys[i].gas_limit, 0);
  }
  s.chain->await_all(kAwaitMs);
  for (const Transaction& tx : deploys) {
    s.chain->watch(tx.hash());
    s.chain->submit(0, tx);
  }
  s.chain->await_all(kAwaitMs);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto r = s.chain->receipt(deploys[i].hash());
    s.published &= r && r->success && r->created_contract == all[i]->address;
  }
  gate.check(s.published, "every classic task is published");
  return s;
}

/// One classic submission, built exactly as a worker client does: encrypt
/// under the task key, RSA-attest alpha_C || alpha_i || C_i, sign.
Transaction build_submission(Setup& s, unsigned node, const Address& task, const Identity& id,
                             Wallet& wallet, const Fr& answer, Rng& rng, std::uint64_t request,
                             bool corrupt) {
  Span op("phase.load.submission", request);
  const auto* contract = s.chain->node(node).chain().state().contract_as<TaskContract>(task);
  const zl::JubjubPoint epk = zl::JubjubPoint::from_bytes(contract->params().epk);
  AnswerCiphertext ct;
  {
    Span span("zebralancer.encrypt_answer");
    ct = encrypt_answer(epk, answer, rng);
  }
  const Bytes rest = zl::concat({wallet.address().to_bytes(), ct.to_bytes()});
  zl::auth::ClassicAttestation att;
  {
    Span span("auth.classic_authenticate");
    att = zl::auth::classic_authenticate(task.to_bytes(), rest, id.key, id.cert);
  }
  if (corrupt) att.signature.back() ^= 0x01;
  Span span("crypto.ecdsa_sign");
  return wallet.make_transaction(task, 0, kCallGas, "submit",
                                 TaskContract::encode_submit_args(att, ct));
}

}  // namespace

Result run_classic_flood(const RunOptions& options) {
  Result result;
  Gate& gate = result.gate;
  LayerInputs in;
  Rng rng(options.seed);

  // Sizing: 4 tasks of 11 answers per second of --seconds (1320 submissions
  // and 2760 flood transactions at the default 30 s). The flood is mostly
  // single-core work, so it needs this long to average out core-speed swings.
  unsigned num_tasks = std::max(20u, options.seconds * 4);
  // The sync replays here are dominated by serial apply, so one core's speed
  // swings show in each; four of them, spread by the set-ups, average those
  // out.
  unsigned setup_reps = 3;
  unsigned replays = 4;
  if (options.small) {
    num_tasks = 2;
    setup_reps = 1;
    replays = 1;
  }

  // --- set-up: once before the load; the other repetitions run between the
  // sync replays, which spreads both kinds of samples through the run.
  Samples setup_s;
  const std::uint64_t setup_seed = rng.fork("setup").next_u64();
  const auto timed_setup = [&] {
    const double t0 = now_s();
    Setup fresh = make_setup(setup_seed, num_tasks, gate);
    setup_s.add(now_s() - t0);
    in.snark_setup_s.add(fresh.keygen_s);
    log("classic-flood: set-up %zu/%u %.2fs (keygen %.2fs)", setup_s.count(), setup_reps,
        now_s() - t0, fresh.keygen_s);
    return fresh;
  };
  Setup s = timed_setup();
  ChainHandle& chain = *s.chain;

  // --- inputs: every (task, worker) pair on a Poisson schedule. Tasks open
  // one after another: each task's answers arrive spread over a window of
  // kAnswerWindowTasks tasks' worth of the schedule, so collections complete,
  // and the timeout settles them, all through the flood.
  struct Sub {
    unsigned task;
    unsigned worker;
    unsigned node;
    std::uint64_t due;  // scheduled send time, simulated ms
    std::unique_ptr<Wallet> wallet;
    Fr answer;
    std::unique_ptr<Rng> rng;  // the client's own randomness
    Transaction tx;
  };
  Rng input_rng = rng.fork("inputs");
  Rng client_rng = rng.fork("clients");
  std::vector<std::pair<double, std::pair<unsigned, unsigned>>> order;
  for (unsigned t = 0; t < num_tasks; ++t) {
    for (unsigned w = 0; w < kN; ++w) {
      const double jitter = static_cast<double>(input_rng.uniform(1u << 20)) / (1u << 20);
      order.push_back({t + jitter * kAnswerWindowTasks, {t, w}});
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<Sub> subs;
  for (const auto& [key, tw] : order) {
    subs.push_back({tw.first, tw.second, 0, 0, nullptr, Fr(), nullptr, {}});
  }
  {
    const std::uint64_t start = s.net->network().now() + 1;
    double t = 0;
    for (std::size_t k = 0; k < subs.size(); ++k) {
      // Exponential inter-arrival gaps from a uniform draw in (0, 1].
      const double u = static_cast<double>(input_rng.uniform(1u << 30) + 1) / (1u << 30);
      t += -std::log(u) * 1000.0 / kArrivalsPerSimSecond;
      subs[k].due = start + static_cast<std::uint64_t>(t);
      subs[k].node = static_cast<unsigned>(k % 2);
    }
  }
  for (Sub& sb : subs) {
    sb.wallet = std::make_unique<Wallet>(client_rng);
    sb.answer = Fr::from_u64(input_rng.uniform(4));
    sb.rng = std::make_unique<Rng>(client_rng.fork("client"));
  }

  Ops& submit_ops = result.ops["submit"];
  Ops& finalize_ops = result.ops["finalize"];
  Samples submit_ms, submit_cpu_ms, submit_cpu_raw_ms, reference_ms, submit_gas;
  unsigned clients = 0;
  Samples& confirm_sim_ms = in.confirm_sim_ms;
  double settle_build_s = 0, settle_ref_ms = 0;
  std::uint64_t answers_settled = 0;
  std::uint64_t generator_late_ms = 0;

  // The settler pokes `finalize` on each task as soon as its instruction
  // window has closed, in the middle of the flood, as a watchtower would.
  Rng settler_rng = client_rng.fork("settler");
  Wallet settler(settler_rng);
  s.funder->fund({settler.address()}, kCallGas * (num_tasks + 1), 0);
  chain.await_all(kAwaitMs);
  std::vector<Transaction> pokes(num_tasks);
  std::vector<bool> poked(num_tasks, false);
  std::size_t unpoked = num_tasks;
  Bytes poked_at_head;
  const auto poke_due_tasks = [&] {
    const zl::chain::Blockchain& head = chain.node(0).chain();
    if (head.head_hash() == poked_at_head) return;
    poked_at_head = head.head_hash();
    for (unsigned i = 0; i < num_tasks; ++i) {
      if (poked[i]) continue;
      const auto* c = head.state().contract_as<TaskContract>(s.tasks[i].address);
      if (c->submissions().size() < kN || head.height() <= c->instruction_deadline()) continue;
      const ScaledTiming t = time_scaled(1, [&] {
        Span span("crypto.ecdsa_sign");
        pokes[i] = settler.make_transaction(s.tasks[i].address, 0, kCallGas / 10, "finalize", {});
      });
      settle_build_s += t.wall_s;
      settle_ref_ms += t.ref_ms;
      answers_settled += kN;
      chain.watch(pokes[i].hash());
      chain.submit(0, pokes[i]);
      poked[i] = true;
      --unpoked;
    }
  };

  const std::uint64_t txs_before = canonical_tx_count(chain.node(0));
  const std::uint64_t height_before = chain.node(0).chain().height();
  const std::uint64_t messages_before = s.net->network().messages_delivered();
  chain.reset_timers();
  const double load_t0 = now_s();
  in.load_obs.begin();
  double ingest_end_s = 0;
  {
    Span phase("phase.load");
    // Every worker builds its submission before the flood (the clients' work
    // does not depend on the chain once the tasks are published), as many
    // independent clients at once as the host has cores. Each one times its
    // own thread's CPU next to a reference chunk on that thread, while the
    // other cores are busy too, so every sample sees the same core sharing.
    {
      Span sub("phase.load.build_submissions");
      clients = std::max(1u, std::thread::hardware_concurrency());
      std::vector<double> wall(subs.size()), cpu(subs.size()), ref(subs.size());
      std::vector<std::exception_ptr> errors(clients);
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c, parent = sub.index()] {
          Trace::adopt(parent);
          try {
            for (std::size_t k = c; k < subs.size(); k += clients) {
              Sub& sb = subs[k];
              ref[k] = reference_s(1);
              const double t0 = now_s();
              const double c0 = thread_cpu_s();
              sb.tx = build_submission(s, sb.node, s.tasks[sb.task].address, s.workers[sb.worker],
                                       *sb.wallet, sb.answer, *sb.rng, k + 1, false);
              cpu[k] = thread_cpu_s() - c0;
              wall[k] = now_s() - t0;
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
      // One chunk is short next to the swings it tracks (about a second), so
      // each sample is scaled by the median of its client's chunks within
      // kReferenceWindow samples either side.
      for (std::size_t k = 0; k < subs.size(); ++k) {
        Samples near;
        const std::size_t reach = kReferenceWindow * clients;
        for (std::size_t j = k % clients; j < subs.size(); j += clients) {
          if (j + reach >= k && j <= k + reach) near.add(ref[j]);
        }
        submit_ms.add(wall[k] * 1e3);
        submit_cpu_raw_ms.add(cpu[k] * 1e3);
        submit_cpu_ms.add(ref_ms(cpu[k], near.median()));
        reference_ms.add(ref[k] * 1e3);
      }
    }
    {
      Span sub("phase.load.flood");
      for (std::size_t k = 0; k < subs.size(); ++k) {
        Sub& sb = subs[k];
        const std::uint64_t now = s.net->network().now();
        if (now < sb.due) chain.run_for(sb.due - now);
        poke_due_tasks();
        generator_late_ms += s.net->network().now() - sb.due;
        const Transaction funding = s.funder->transfer(sb.wallet->address(), kWorkerGas);
        chain.watch(funding.hash());
        chain.submit(sb.node, funding);
        chain.watch(sb.tx.hash());
        chain.submit(sb.node, sb.tx);
      }
      // Drain: keep the network running until every task has been poked
      // and every transaction is included at node 0.
      const std::uint64_t deadline = s.net->network().now() + kAwaitMs;
      while ((unpoked > 0 || chain.pending() > 0) && s.net->network().now() < deadline) {
        chain.run_for(5);
        poke_due_tasks();
      }
      chain.await_all(kAwaitMs);
      ingest_end_s = chain.stats().ingest.wall();
    }

    for (Sub& sb : subs) {
      const Bytes h = sb.tx.hash();
      const auto r = chain.receipt(h);
      const bool ok = r && r->success;
      submit_ops.record(ok);
      if (!ok) {
        log("submission failed: %s", r ? r->error.c_str() : "unconfirmed");
        continue;
      }
      submit_gas.add(static_cast<double>(r->gas_used));
      if (const auto at = chain.included_at(h)) {
        confirm_sim_ms.add(static_cast<double>(*at - sb.due));
      }
    }

    // Settlement checks: each submitter got tau/|W| from the timeout, the
    // requester the rest. Balances are reconstructed from the funding and
    // the gas each address paid, so no before/after snapshot is needed.
    const zl::chain::ChainState& st = chain.state();
    for (unsigned i = 0; i < num_tasks; ++i) {
      const Task& t = s.tasks[i];
      const auto r = poked[i] ? chain.receipt(pokes[i].hash()) : std::nullopt;
      finalize_ops.record(r && r->success);
      if (!(r && r->success)) {
        log("finalize failed: %s", r ? r->error.c_str() : "not sent or unconfirmed");
        continue;
      }
      const auto* c = st.contract_as<TaskContract>(t.address);
      std::uint64_t paid = 0;
      bool each_paid = c->submissions().size() == kN;
      for (const Sub& sb : subs) {
        if (sb.task != i) continue;
        const auto sr = chain.receipt(sb.tx.hash());
        const std::uint64_t left = kWorkerGas - (sr ? sr->gas_used : 0);
        const std::uint64_t got = st.balance_of(sb.wallet->address()) - left;
        each_paid &= got == t.budget / kN;
        paid += got;
      }
      const auto dr = chain.receipt(t.deploy_hash);
      const std::uint64_t left = t.deploy_gas_limit - (dr ? dr->gas_used : 0);
      const std::uint64_t refund = st.balance_of(t.wallet->address()) - left;
      gate.check(each_paid, "classic task " + std::to_string(i) +
                                ": every submitter is paid tau/|W| by the timeout");
      gate.check(paid + refund == t.budget && st.balance_of(t.address) == 0,
                 "classic task " + std::to_string(i) + ": payouts + refund == budget");
      bool distinct = true;
      for (std::size_t x = 0; x < c->submissions().size(); ++x) {
        for (std::size_t y = x + 1; y < c->submissions().size(); ++y) {
          distinct &= c->submissions()[x].classic_pk != c->submissions()[y].classic_pk;
        }
      }
      gate.check(distinct, "no double submission accepted");
    }

    // Probe task: a second submission from the same certified key must be
    // refused; in the self-test a corrupted attestation is refused too.
    {
      Span sub("phase.load.probe");
      std::vector<std::unique_ptr<Wallet>> wallets;
      for (int i = 0; i < 3; ++i) wallets.push_back(std::make_unique<Wallet>(client_rng));
      s.funder->fund({wallets[0]->address(), wallets[1]->address(), wallets[2]->address()},
                     kWorkerGas, 0);
      chain.await_all(kAwaitMs);
      const Transaction first = build_submission(s, 0, s.probe.address, s.workers[0], *wallets[0],
                                                 Fr::from_u64(1), client_rng, 0, false);
      chain.watch(first.hash());
      chain.submit(0, first);
      chain.await_all(kAwaitMs);
      const Transaction dup = build_submission(s, 0, s.probe.address, s.workers[0], *wallets[1],
                                               Fr::from_u64(2), client_rng, 0, false);
      chain.watch(dup.hash());
      chain.submit(0, dup);
      Transaction planted;
      if (options.plant_bad_attestation) {
        planted = build_submission(s, 0, s.probe.address, s.workers[1], *wallets[2],
                                   Fr::from_u64(0), client_rng, 0, true);
        chain.watch(planted.hash());
        chain.submit(0, planted);
      }
      chain.await_all(kAwaitMs);
      const auto r1 = chain.receipt(first.hash());
      const auto r2 = chain.receipt(dup.hash());
      gate.check(r1 && r1->success, "probe: the first submission is accepted");
      gate.check(r2 && !r2->success && r2->error == "revert: double submission",
                 "a double submission is refused");
      if (options.plant_bad_attestation) {
        const auto pr = chain.receipt(planted.hash());
        result.ops["planted"].record(pr && pr->success);
        gate.check(pr && !pr->success, "a corrupt attestation is refused");
        log("planted corrupt attestation: %s",
            pr ? (pr->success ? "ACCEPTED" : pr->error.c_str()) : "unconfirmed");
      }
    }
  }
  in.load_obs.end();
  const double load_wall_s = now_s() - load_t0;

  in.load_txs = canonical_tx_count(chain.node(0)) - txs_before;
  in.load_blocks = chain.node(0).chain().height() - height_before;
  in.load_messages = s.net->network().messages_delivered() - messages_before;
  in.final_height = chain.node(0).chain().height();
  in.blocks_mined = s.net->total_blocks_mined();
  const std::uint64_t flood_txs = 2 * subs.size() + num_tasks;

  // --- sync phase, with the remaining set-ups in between ------------------------
  chain.align_tail(zl::store::OpenOptions{}.snapshot_interval, kQuietTail);
  const SyncSource source = capture_sync_source(chain.node(0));
  const ChainStats chain_stats = chain.stats();
  const std::uint64_t sim_ms = s.net->network().now();
  s = Setup{};  // release the load's network before the next set-ups
  const SyncOutcome sync = run_sync_phase(
      source, replays, options.workdir, options.plant_tampered_block,
      [&] {
        if (setup_s.count() < setup_reps) timed_setup();
      },
      gate, result.ops["sync"]);

  result.e2e("setup_s", setup_s.median(), "s", setup_s.count());
  result.layer("zebralancer.submit_ms_mean", submit_ms.mean(), "ms", submit_ms.count());
  result.e2e("submit_cpu_ms_p50", submit_cpu_ms.median(), "ref-ms", submit_cpu_ms.count());
  result.e2e("submit_cpu_ms_p90", submit_cpu_ms.quantile(0.9), "ref-ms", submit_cpu_ms.count());
  result.layer("zebralancer.settle_ms_per_answer",
             answers_settled ? settle_build_s * 1e3 / static_cast<double>(answers_settled) : 0.0,
             "ms", answers_settled);
  result.e2e("sync_cpu_s_p50", sync.sync_cpu_s.median(), "ref-s", sync.sync_cpu_s.count());
  result.e2e("reopen_cpu_ms_p50", sync.reopen_cpu_ms.median(), "ref-ms",
             sync.reopen_cpu_ms.count());
  result.e2e("settle_cpu_ms_per_answer",
             answers_settled ? settle_ref_ms / static_cast<double>(answers_settled) : 0.0,
             "ref-ms", answers_settled);
  result.e2e("submit_gas", submit_gas.mean(), "gas", submit_gas.count());
  result.layer("chain.ingest_tx_per_s",
             ingest_end_s > 0 ? static_cast<double>(flood_txs) / ingest_end_s : 0.0, "tx/s",
             flood_txs);

  result.details.integer("tasks", num_tasks)
      .integer("clients", clients)
      .integer("submissions", static_cast<std::int64_t>(subs.size()))
      .num("arrivals_per_sim_s", kArrivalsPerSimSecond)
      .integer("generator_late_sim_ms", static_cast<std::int64_t>(generator_late_ms))
      .num("submit_ms_p99", submit_ms.quantile(0.99))
      .num("submit_ms_p50", submit_ms.median())
      .num("submit_ms_p90", submit_ms.quantile(0.9))
      .num("submit_cpu_raw_ms_p50", submit_cpu_raw_ms.median())
      .num("submit_reference_ms_p50", reference_ms.median())
      .num("sync_cpu_raw_s_p50", sync.sync_cpu_raw_s.median())
      .num("reopen_cpu_raw_ms_p50", sync.reopen_cpu_raw_ms.median())
      .num("sync_s_p50", sync.sync_s.median())
      .num("sync_s_mean", sync.sync_s.mean())
      .num("reopen_ms_p50", sync.reopen_ms.median())
      .num("reopen_ms_mean", sync.reopen_ms.mean())
      .num("load_wall_s", load_wall_s)
      .num("ingest_wall_s", ingest_end_s)
      .integer("load_txs", static_cast<std::int64_t>(in.load_txs))
      .integer("load_blocks", static_cast<std::int64_t>(in.load_blocks))
      .integer("sync_blocks", static_cast<std::int64_t>(source.wire.size()))
      .integer("sync_txs", static_cast<std::int64_t>(source.txs))
      .integer("sim_ms", static_cast<std::int64_t>(sim_ms));
  result.load_wall_s = load_wall_s;
  if (options.trace) add_layer_metrics(result, in, chain_stats, sync, options.trace_cost);
  return result;
}

}  // namespace perfbench

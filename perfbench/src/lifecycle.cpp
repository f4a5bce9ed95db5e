// Workload `lifecycle`: the paper's §VI deployment on the TestNet defaults
// (2 miners, 2 full nodes, 10±5 ms links, difficulty 2048). A closed loop
// with the benchmark as the only client: each round publishes one
// majority-vote:4 task per shape n in {3,5,7,9,11}, funds every worker's
// one-task address in one batch, builds every anonymous submission
// (encrypt_answer + auth::authenticate + sign) and injects them all at the
// workers' node before the network runs, so blocks carry many CPL-AA proofs
// under one key. Requesters then prove and send rewards, and a watchtower
// audit closes the round. Requesters use full node 0, workers full node 1.

#include <algorithm>
#include <memory>

#include "chain_handle.h"
#include "common/thread_pool.h"
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

constexpr unsigned kMerkleDepth = 8;
constexpr unsigned kWorkers = 11;
constexpr unsigned kShapes[] = {3, 5, 7, 9, 11};
constexpr unsigned kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);
const char* const kPolicy = "majority-vote:4";
constexpr unsigned kChoices = 4;
constexpr std::uint64_t kShare = 1'000'000;       // tau / n, wei
constexpr std::uint64_t kWorkerGas = 3'000'000;   // one-task address funding
constexpr std::uint64_t kCallGas = 2'000'000;     // submit / reward gas limit
constexpr std::uint64_t kDeadlineBlocks = 400;    // T_A and T_I
// Quiet blocks after the newest snapshot of the synced chain (see align_tail).
constexpr std::uint64_t kQuietTail = 4;
constexpr std::uint64_t kAwaitMs = 20'000;       // simulated-time deadline

struct Identity {
  zl::auth::UserKey key;
  zl::auth::Certificate cert;
};

struct Setup {
  std::unique_ptr<SystemParams> params;
  std::unique_ptr<TestNet> net;
  std::unique_ptr<ChainHandle> chain;
  std::unique_ptr<Funder> funder;
  std::vector<Identity> workers;
  std::vector<Identity> requesters;
  Fr registry_root;
  double keygen_s = 0;
};

/// SNARK keygen, RA registration of every identity, topology, bench faucet.
Setup make_setup(std::uint64_t seed, const std::vector<RewardCircuitSpec>& specs,
                 unsigned requesters) {
  Span phase("phase.setup");
  Setup s;
  Rng rng(seed);
  Rng keygen_rng = rng.fork("keygen");
  {
    Span span("snark.setup");
    const double t0 = now_s();
    s.params = std::make_unique<SystemParams>(make_system_params(kMerkleDepth, specs, keygen_rng));
    s.keygen_s = now_s() - t0;
  }
  TestNet::Config config;
  config.seed = seed * 0x9e3779b97f4a7c15ull + 1;
  config.merkle_depth = kMerkleDepth;
  s.net = std::make_unique<TestNet>(config);
  s.chain = std::make_unique<ChainHandle>(*s.net);

  Rng id_rng = rng.fork("identities");
  const auto enroll = [&](const std::string& name) {
    Identity id{zl::auth::UserKey::generate(id_rng), {}};
    Span span("chain.register");
    id.cert = s.net->register_participant(name, id.key.pk);
    return id;
  };
  for (unsigned i = 0; i < kWorkers; ++i) s.workers.push_back(enroll("worker-" + std::to_string(i)));
  for (unsigned i = 0; i < requesters; ++i) {
    s.requesters.push_back(enroll("requester-" + std::to_string(i)));
  }
  // Certificates issued early hold stale paths once the registry grew.
  for (std::vector<Identity>* group : {&s.workers, &s.requesters}) {
    for (Identity& id : *group) id.cert = s.net->ra().current_certificate(id.cert.leaf_index);
  }
  s.registry_root = s.net->on_chain_registry_root();

  Rng funder_rng = rng.fork("funder");
  Span span("chain.fund");
  s.funder = std::make_unique<Funder>(*s.chain, funder_rng, 4, 100'000'000'000ull);
  return s;
}

struct Slot {
  unsigned worker = 0;  // identity index
  Fr answer;
  std::unique_ptr<Wallet> wallet;
  Transaction tx;
  std::uint64_t injected_at = 0;
  std::uint64_t balance_before_reward = 0;
};

struct Task {
  unsigned n = 0;
  unsigned requester = 0;
  std::uint64_t budget = 0;
  std::unique_ptr<Wallet> wallet;  // alpha_R
  TaskEncKeyPair enc;
  Address address;  // alpha_C
  std::vector<Slot> slots;
  Transaction reward_tx;
  std::uint64_t requester_balance_before_reward = 0;
  bool published = false;
};

/// One anonymous submission, built exactly as a worker client does:
/// encrypt under the task key, attest alpha_C || alpha_i || C_i, sign.
Transaction build_submission(const Setup& s, LayerInputs& in, const Address& task,
                             const Identity& id, Wallet& wallet, const Fr& answer, Rng& rng,
                             std::uint64_t request, bool corrupt) {
  Span op("phase.load.submission", request);
  // The worker reads the task from its own node before participating.
  const auto* contract = s.net->client_node(1).chain().state().contract_as<TaskContract>(task);
  const zl::JubjubPoint epk = zl::JubjubPoint::from_bytes(contract->params().epk);
  AnswerCiphertext ct;
  {
    Span span("zebralancer.encrypt_answer");
    ct = encrypt_answer(epk, answer, rng);
  }
  const Bytes rest = zl::concat({wallet.address().to_bytes(), ct.to_bytes()});
  zl::auth::Attestation att = in.auth_prove.measure([&] {
    Span span("auth.authenticate");
    return zl::auth::authenticate(s.params->auth, task.to_bytes(), rest, id.key, id.cert,
                                  s.registry_root, rng);
  });
  if (corrupt) att.t2 += Fr::one();
  Span span("crypto.ecdsa_sign");
  return wallet.make_transaction(task, 0, kCallGas, "submit",
                                 TaskContract::encode_submit_args(att, ct));
}

}  // namespace

Result run_lifecycle(const RunOptions& options) {
  Result result;
  Gate& gate = result.gate;
  LayerInputs in;
  Rng rng(options.seed);

  // Sizing: one round is one task per shape (35 submissions). Three rounds
  // give 105 submission samples, so the p90 has ten samples beyond it.
  std::vector<unsigned> shapes(kShapes, kShapes + kNumShapes);
  unsigned rounds = std::max(3u, options.seconds / 10);
  unsigned setup_reps = 3;
  unsigned replays = 3;
  if (options.small) {
    shapes = {3};
    rounds = 1;
    setup_reps = 1;
    replays = 1;
  }
  std::vector<RewardCircuitSpec> specs;
  for (const unsigned n : shapes) specs.push_back({n, kPolicy});

  // --- set-up: once before the load; the other repetitions run between the
  // sync replays, which spreads both kinds of samples through the run.
  Samples setup_s;
  const std::uint64_t setup_seed = rng.fork("setup").next_u64();
  const auto timed_setup = [&] {
    const double t0 = now_s();
    Setup fresh = make_setup(setup_seed, specs, static_cast<unsigned>(shapes.size()));
    setup_s.add(now_s() - t0);
    in.snark_setup_s.add(fresh.keygen_s);
    log("lifecycle: set-up %zu/%u %.2fs (keygen %.2fs)", setup_s.count(), setup_reps,
        now_s() - t0, fresh.keygen_s);
    return fresh;
  };
  Setup s = timed_setup();
  ChainHandle& chain = *s.chain;
  const std::unique_ptr<zl::zebralancer::IncentivePolicy> policy =
      IncentivePolicy::by_name(kPolicy);

  Ops& publish_ops = result.ops["publish"];
  Ops& submit_ops = result.ops["submit"];
  Ops& reward_ops = result.ops["reward"];
  Samples submit_ms, submit_cpu_ms, submit_cpu_raw_ms, reference_ms, submit_gas;
  Samples& confirm_sim_ms = in.confirm_sim_ms;
  // Ingest rate per round. Its median is the reported rate: a fork switch
  // re-verifies every proof back to the last checkpoint, and how often that
  // happens is a proof-of-work lottery that a whole-load total would carry.
  Samples round_ingest;
  double reward_build_s = 0, reward_ref_ms = 0;
  std::uint64_t answers_rewarded = 0;
  std::uint64_t request = 0;
  std::vector<Address> all_tasks;

  const std::uint64_t txs_before = canonical_tx_count(chain.node(0));
  const std::uint64_t height_before = chain.node(0).chain().height();
  const std::uint64_t messages_before = s.net->network().messages_delivered();
  Rng answer_rng = rng.fork("answers");
  Rng client_rng = rng.fork("clients");

  chain.reset_timers();
  const double load_t0 = now_s();
  in.load_obs.begin();
  {
    Span phase("phase.load");
    for (unsigned round = 0; round < rounds; ++round) {
      std::vector<Task> tasks(shapes.size());
      const std::uint64_t round_txs0 = canonical_tx_count(chain.node(0));
      const double round_ingest0 = chain.stats().ingest.wall();

      // 1. Requesters publish (fund alpha_R in one batch, then deploy).
      {
        Span sub("phase.load.publish");
        std::vector<Address> requester_addrs;
        std::vector<Bytes> ctor_args;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          Task& task = tasks[t];
          task.n = shapes[t];
          task.requester = static_cast<unsigned>(t);
          task.budget = kShare * task.n;
          task.wallet = std::make_unique<Wallet>(client_rng);
          task.enc = TaskEncKeyPair::generate(client_rng);
          const Address alpha_r = task.wallet->address();
          task.address = Address::for_contract(alpha_r, 0);
          const Identity& req = s.requesters[task.requester];
          const zl::auth::Attestation att = in.auth_prove.measure([&] {
            Span span("auth.authenticate", ++request);
            return zl::auth::authenticate(s.params->auth, task.address.to_bytes(),
                                          alpha_r.to_bytes(), req.key, req.cert, s.registry_root,
                                          client_rng);
          });
          TaskParams p;
          p.requester_address = alpha_r;
          p.requester_attestation = att.to_bytes();
          p.registry_root = s.registry_root;
          p.budget = task.budget;
          p.epk = task.enc.epk.to_bytes();
          p.num_answers = task.n;
          p.answer_deadline_blocks = kDeadlineBlocks;
          p.instruct_deadline_blocks = kDeadlineBlocks;
          p.policy_name = kPolicy;
          p.auth_vk = s.params->auth.keys.vk.to_bytes();
          p.reward_vk = s.params->reward_keypair({task.n, kPolicy}).vk.to_bytes();
          ctor_args.push_back(p.to_bytes());
          requester_addrs.push_back(alpha_r);
        }
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          const std::uint64_t gas = 2'000'000 + 2 * ctor_args[t].size();
          s.funder->fund({requester_addrs[t]}, tasks[t].budget + gas + kCallGas, 0);
        }
        chain.await_all(kAwaitMs);
        std::vector<Bytes> deploys;
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          const std::uint64_t gas = 2'000'000 + 2 * ctor_args[t].size();
          Transaction tx;
          {
            Span span("crypto.ecdsa_sign");
            tx = tasks[t].wallet->make_transaction(Address(), tasks[t].budget, gas,
                                                   TaskContract::kContractType, ctor_args[t]);
          }
          deploys.push_back(tx.hash());
          chain.watch(deploys.back());
          chain.submit(0, tx);
        }
        chain.await_all(kAwaitMs);
        for (std::size_t t = 0; t < tasks.size(); ++t) {
          const auto r = chain.receipt(deploys[t]);
          const bool ok = r && r->success && r->created_contract == tasks[t].address;
          publish_ops.record(ok);
          tasks[t].published = ok;
          if (ok) {
            ++in.proofs_on_chain;
            all_tasks.push_back(tasks[t].address);
          } else {
            log("publish failed: %s", r ? r->error.c_str() : "unconfirmed");
          }
        }
      }

      // 2. Fund every worker's one-task address in one batch (node 1).
      // Round 0 also funds the double-submission probe and, in the
      // self-test, the planted corrupt submission.
      Task& probe_task = tasks[0];
      std::unique_ptr<Wallet> probe_wallet, planted_wallet;
      const bool probe = round == 0 && probe_task.published;
      {
        Span sub("phase.load.fund_workers");
        std::vector<Address> addrs;
        for (Task& task : tasks) {
          if (!task.published) continue;
          std::vector<unsigned> pool(kWorkers);
          for (unsigned i = 0; i < kWorkers; ++i) pool[i] = i;
          for (unsigned i = kWorkers - 1; i > 0; --i) {
            std::swap(pool[i], pool[answer_rng.uniform(i + 1)]);
          }
          const unsigned truth = static_cast<unsigned>(answer_rng.uniform(kChoices));
          for (unsigned j = 0; j < task.n; ++j) {
            Slot slot;
            slot.worker = pool[j];
            const bool agrees = answer_rng.uniform(10) < 7;
            slot.answer = Fr::from_u64(agrees ? truth : answer_rng.uniform(kChoices));
            slot.wallet = std::make_unique<Wallet>(client_rng);
            addrs.push_back(slot.wallet->address());
            task.slots.push_back(std::move(slot));
          }
        }
        if (probe) {
          probe_wallet = std::make_unique<Wallet>(client_rng);
          addrs.push_back(probe_wallet->address());
          if (options.plant_bad_attestation) {
            planted_wallet = std::make_unique<Wallet>(client_rng);
            addrs.push_back(planted_wallet->address());
          }
        }
        s.funder->fund(addrs, kWorkerGas, 1);
        chain.await_all(kAwaitMs);
      }

      // 3. Every worker builds its submission (the Fig. 4 client cost).
      {
        Span sub("phase.load.build_submissions");
        for (Task& task : tasks) {
          for (Slot& slot : task.slots) {
            // Proving runs on the whole pool.
            const ScaledTiming t = time_scaled(zl::num_threads(), [&] {
              slot.tx = build_submission(s, in, task.address, s.workers[slot.worker],
                                         *slot.wallet, slot.answer, client_rng, ++request, false);
            });
            submit_ms.add(t.wall_s * 1e3);
            submit_cpu_raw_ms.add(t.cpu_s * 1e3);
            submit_cpu_ms.add(t.ref_ms);
            reference_ms.add(t.reference_s * 1e3);
          }
        }
      }

      // 4. Inject everything at once, except the probe task's last slot,
      // which waits until the probes have been refused.
      const auto inject = [&](Slot& slot) {
        slot.injected_at = s.net->network().now();
        chain.watch(slot.tx.hash());
        chain.submit(1, slot.tx);
      };
      {
        Span sub("phase.load.collect");
        for (Task& task : tasks) {
          for (std::size_t j = 0; j < task.slots.size(); ++j) {
            if (probe && &task == &probe_task && j + 1 == task.slots.size()) continue;
            inject(task.slots[j]);
          }
        }
        chain.await_all(kAwaitMs);
        if (probe) {
          // A second submission from an identity that already answered this
          // task must be refused by Link; the planted one carries a broken
          // attestation from an identity that has not answered.
          const Slot& first = probe_task.slots.front();
          const Transaction dup = build_submission(s, in, probe_task.address,
                                                   s.workers[first.worker], *probe_wallet,
                                                   first.answer, client_rng, ++request, false);
          chain.watch(dup.hash());
          chain.submit(1, dup);
          Transaction planted;
          if (planted_wallet) {
            unsigned outsider = 0;
            while (std::any_of(probe_task.slots.begin(), probe_task.slots.end(),
                               [&](const Slot& x) { return x.worker == outsider; })) {
              ++outsider;
            }
            planted = build_submission(s, in, probe_task.address, s.workers[outsider],
                                       *planted_wallet, Fr::from_u64(0), client_rng, ++request,
                                       true);
            chain.watch(planted.hash());
            chain.submit(1, planted);
          }
          chain.await_all(kAwaitMs);
          const auto r = chain.receipt(dup.hash());
          gate.check(r && !r->success && r->error == "revert: double submission",
                     "a double submission is refused by Link");
          if (planted_wallet) {
            const auto pr = chain.receipt(planted.hash());
            result.ops["planted"].record(pr && pr->success);
            gate.check(pr && !pr->success, "a corrupt attestation is refused");
            log("planted corrupt attestation: %s",
                pr ? (pr->success ? "ACCEPTED" : pr->error.c_str()) : "unconfirmed");
          }
          inject(probe_task.slots.back());
          chain.await_all(kAwaitMs);
        }
        for (Task& task : tasks) {
          for (Slot& slot : task.slots) {
            const Bytes h = slot.tx.hash();
            const auto r = chain.receipt(h);
            const bool ok = r && r->success;
            submit_ops.record(ok);
            if (!ok) {
              log("submission failed: %s", r ? r->error.c_str() : "unconfirmed");
              continue;
            }
            submit_gas.add(static_cast<double>(r->gas_used));
            ++in.proofs_on_chain;
            if (const auto at = chain.included_at(h)) {
              confirm_sim_ms.add(static_cast<double>(*at - slot.injected_at));
            }
          }
        }
      }

      // 5. Requesters prove rewards and send them (node 0).
      {
        Span sub("phase.load.reward");
        const zl::chain::ChainState& state = chain.state();
        std::vector<Task*> ready;
        for (Task& task : tasks) {
          if (!task.published) continue;
          const auto* c = state.contract_as<TaskContract>(task.address);
          if (!c->collection_complete(chain.node(0).chain().height())) {
            reward_ops.record(false);
            log("reward skipped: task n=%u collected %zu answers", task.n, c->submissions().size());
            continue;
          }
          task.requester_balance_before_reward = state.balance_of(task.wallet->address());
          for (Slot& slot : task.slots) {
            slot.balance_before_reward = state.balance_of(slot.wallet->address());
          }
          // Reward proving runs on the whole pool, like submission proving.
          const ScaledTiming t = time_scaled(zl::num_threads(), [&] {
            const double t0 = now_s();
            const RewardCircuitSpec spec{task.n, kPolicy};
            const RewardInstruction instr = in.reward_prove.measure([&] {
              Span span("zebralancer.prove_rewards", ++request);
              return prove_rewards(s.params->reward_keypair(spec).pk, spec, task.enc, c->share(),
                                   c->padded_ciphertexts(), client_rng);
            });
            in.prove_rewards_ms[task.n].add((now_s() - t0) * 1e3);
            Span span("crypto.ecdsa_sign");
            task.reward_tx = task.wallet->make_transaction(
                task.address, 0, kCallGas, "reward",
                TaskContract::encode_reward_args(instr.rewards, instr.proof));
          });
          reward_build_s += t.wall_s;
          reward_ref_ms += t.ref_ms;
          answers_rewarded += task.n;
          ready.push_back(&task);
        }
        for (Task* task : ready) {
          chain.watch(task->reward_tx.hash());
          chain.submit(0, task->reward_tx);
        }
        chain.await_all(kAwaitMs);

        // 6. Watchtower audit and settlement checks.
        std::vector<Address> rewarded;
        for (Task* task : ready) {
          const auto r = chain.receipt(task->reward_tx.hash());
          const bool ok = r && r->success;
          reward_ops.record(ok);
          if (!ok) {
            log("reward failed: %s", r ? r->error.c_str() : "unconfirmed");
            continue;
          }
          ++in.proofs_on_chain;
          rewarded.push_back(task->address);
          const zl::chain::ChainState& st = chain.state();
          const auto* c = st.contract_as<TaskContract>(task->address);
          // Expected payouts: the policy over the answers in contract order.
          std::vector<Fr> answers;
          std::vector<const Slot*> by_order;
          for (const TaskContract::Submission& sub_rec : c->submissions()) {
            const auto it = std::find_if(task->slots.begin(), task->slots.end(), [&](const Slot& x) {
              return x.wallet->address() == sub_rec.worker_address;
            });
            by_order.push_back(it == task->slots.end() ? nullptr : &*it);
            answers.push_back(it == task->slots.end() ? policy->bottom() : it->answer);
          }
          while (answers.size() < task->n) answers.push_back(policy->bottom());
          const std::vector<std::uint64_t> expected = policy->rewards(answers, c->share());
          std::uint64_t paid = 0;
          bool payouts_ok = std::find(by_order.begin(), by_order.end(), nullptr) == by_order.end();
          for (std::size_t i = 0; i < by_order.size() && payouts_ok; ++i) {
            const std::uint64_t got =
                st.balance_of(by_order[i]->wallet->address()) - by_order[i]->balance_before_reward;
            payouts_ok = got == expected[i] && (got == 0 || got == c->share());
            paid += got;
          }
          const std::uint64_t refund = st.balance_of(task->wallet->address()) + r->gas_used -
                                       task->requester_balance_before_reward;
          gate.check(payouts_ok, "task n=" + std::to_string(task->n) +
                                     ": the majority is paid tau/|W| each, the rest nothing");
          gate.check(paid + refund == task->budget && st.balance_of(task->address) == 0,
                     "task n=" + std::to_string(task->n) + ": payouts + refund == budget");
          // No two accepted submissions may link (one answer per identity).
          bool unlinked = true;
          for (std::size_t i = 0; i < c->submissions().size(); ++i) {
            for (std::size_t j = i + 1; j < c->submissions().size(); ++j) {
              unlinked &= !zl::auth::link(c->submissions()[i].attestation,
                                          c->submissions()[j].attestation);
            }
          }
          gate.check(unlinked, "no double submission accepted");
        }
        std::vector<std::size_t> flagged;
        {
          Span span("zebralancer.audit");
          flagged = audit_rewarded_tasks(chain.state(), rewarded);
        }
        gate.check(flagged.empty(), "watchtower audit flags no reward proof");
      }
      round_ingest.add(static_cast<double>(canonical_tx_count(chain.node(0)) - round_txs0) /
                       (chain.stats().ingest.wall() - round_ingest0));
      log("lifecycle: round %u/%u done at %.1fs", round + 1, rounds, now_s() - load_t0);
    }
  }
  in.load_obs.end();
  const double load_wall_s = now_s() - load_t0;

  in.load_txs = canonical_tx_count(chain.node(0)) - txs_before;
  in.load_blocks = chain.node(0).chain().height() - height_before;
  in.load_messages = s.net->network().messages_delivered() - messages_before;
  in.final_height = chain.node(0).chain().height();
  in.blocks_mined = s.net->total_blocks_mined();

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

  // --- end-to-end metrics ------------------------------------------------------
  result.e2e("setup_s", setup_s.median(), "s", setup_s.count());
  result.layer("zebralancer.submit_ms_mean", submit_ms.mean(), "ms", submit_ms.count());
  result.e2e("submit_cpu_ms_p50", submit_cpu_ms.median(), "ref-ms", submit_cpu_ms.count());
  result.e2e("submit_cpu_ms_p90", submit_cpu_ms.quantile(0.9), "ref-ms", submit_cpu_ms.count());
  result.layer("zebralancer.settle_ms_per_answer",
             answers_rewarded ? reward_build_s * 1e3 / static_cast<double>(answers_rewarded) : 0.0,
             "ms", answers_rewarded);
  result.e2e("sync_cpu_s_p50", sync.sync_cpu_s.median(), "ref-s", sync.sync_cpu_s.count());
  result.e2e("reopen_cpu_ms_p50", sync.reopen_cpu_ms.median(), "ref-ms",
             sync.reopen_cpu_ms.count());
  result.e2e("settle_cpu_ms_per_answer",
             answers_rewarded ? reward_ref_ms / static_cast<double>(answers_rewarded) : 0.0,
             "ref-ms", answers_rewarded);
  result.e2e("submit_gas", submit_gas.mean(), "gas", submit_gas.count());
  result.layer("chain.ingest_tx_per_s", round_ingest.median(), "tx/s", in.load_txs);

  result.details.integer("rounds", rounds)
      .integer("tasks", static_cast<std::int64_t>(all_tasks.size()))
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
      .num("ingest_wall_s", chain_stats.ingest.wall())
      .num("ingest_tx_per_s_whole_load", static_cast<double>(in.load_txs) /
                                              chain_stats.ingest.wall())
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

//! Crash-recovery integration tests of the durable server: a restart on
//! the same data directory must reconstruct the corpus bit-identically —
//! same answers for all five task kinds, same wire ids (including burned
//! ones), same shard layouts, and **zero** `auto_k` re-probing.

use spanner_server::{
    metrics, Client, ClientError, ErrorCode, PersistenceOptions, Server, ServerConfig,
    ServerOptions, TenantSpec,
};
use spanner_slp_core::Service;
use spanner_store::{LogVerb, Store};
use std::path::PathBuf;

const CADENCE_TRIGGERS: &str = "spanner_store_snapshot_triggers_total{trigger=\"cadence\"}";
const SIZE_TRIGGERS: &str = "spanner_store_snapshot_triggers_total{trigger=\"size\"}";

/// One series of a durable server's scrape (the store families are always
/// present when persistence is on).
fn series(scrape: &str, name: &str) -> u64 {
    metrics::value(scrape, name).unwrap_or_else(|| panic!("no series {name}:\n{scrape}"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("spanner-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot_durable(dir: &TempDir, snapshot_every: u64) -> Server {
    boot_durable_sized(dir, snapshot_every, 0)
}

fn boot_durable_sized(dir: &TempDir, snapshot_every: u64, snapshot_bytes: u64) -> Server {
    let options = ServerOptions {
        persistence: Some(PersistenceOptions {
            dir: dir.0.clone(),
            snapshot_every,
            snapshot_bytes,
        }),
        ..ServerOptions::from(ServerConfig::default())
    };
    Server::bind_with("127.0.0.1:0", Service::new(), options).expect("bind durable loopback")
}

/// All five task kinds on one pooled pair, as comparable values.
fn answers(client: &mut Client, q: u64, d: u64) -> (bool, bool, u128, usize, Vec<String>) {
    let (non_empty, _) = client.non_empty(q, d).unwrap();
    let (count, _) = client.count(q, d).unwrap();
    let (computed, _) = client.compute(q, d, None).unwrap();
    let (enumerated, _) = client.enumerate(q, d, 0, None, |_| {}).unwrap();
    let checked = computed
        .first()
        .map(|t| client.model_check(q, d, t).unwrap().0)
        .unwrap_or(false);
    (
        non_empty,
        checked,
        count,
        computed.len(),
        enumerated.iter().map(|t| format!("{t:?}")).collect(),
    )
}

#[test]
fn restart_round_trip_is_bit_identical() {
    let dir = TempDir::new("roundtrip");
    let texts: [&[u8]; 3] = [b"abababab", b"aabbaabbab", b"babaabab"];

    // Session one: a mixed corpus — monolithic, explicitly sharded,
    // auto-tuned — plus a removal (its wire id must stay burned), and a
    // non-default tenant with its own namespace.
    let before = {
        let server = boot_durable(&dir, 0);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .tenant_create(TenantSpec {
                id: 7,
                name: "acme".into(),
                max_docs: 10,
                max_corpus_bytes: 1 << 20,
                cache_share: 0,
                admission_weight: 2,
            })
            .unwrap();
        let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
        let d0 = client.add_doc(texts[0]).unwrap();
        let d1 = client.add_doc_sharded(texts[1], 3).unwrap();
        let d2 = client.add_doc_sharded(texts[2], 0).unwrap(); // auto-tuned
        let doomed = client.add_doc(b"abab").unwrap();
        client.remove_doc(doomed.id).unwrap();
        client.set_tenant(7);
        let t0 = client.add_doc(texts[0]).unwrap();
        client.set_tenant(0);

        let snapshot: Vec<_> = [d0.id, d1.id, d2.id]
            .iter()
            .map(|&d| answers(&mut client, q, d))
            .collect();
        client.set_tenant(7);
        let tenant_answers = answers(&mut client, q, t0.id);
        client.set_tenant(0);
        client.shutdown().unwrap();
        server.join();
        (
            q,
            [d0.id, d1.id, d2.id, doomed.id],
            t0.id,
            snapshot,
            tenant_answers,
        )
    };
    let (q_wire, doc_ids, tenant_doc, snapshot, tenant_answers) = before;

    // Session two: a fresh service replayed from the store.
    let server = boot_durable(&dir, 0);
    let report = *server.recovery().expect("durable boot reports recovery");
    assert_eq!(report.documents, 4, "3 default-tenant docs + 1 tenant doc");
    assert_eq!(report.tenants, 1, "the non-default tenant came back");
    assert_eq!(
        server.service().auto_probe_count(),
        0,
        "replay must register recorded shard counts, never re-probe"
    );

    let mut client = Client::connect(server.local_addr()).unwrap();
    // Queries are ephemeral (not corpus verbs) — re-register the same one.
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    assert_eq!(q, q_wire);

    for (i, &d) in doc_ids[..3].iter().enumerate() {
        assert_eq!(answers(&mut client, q, d), snapshot[i]);
    }
    // The removed document's wire id stays burned.
    let err = client.count(q, doc_ids[3]).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::UnknownId,
                ..
            }
        ),
        "burned id must stay burned, got {err}"
    );
    // The tenant's namespace (and its answers) came back too.
    client.set_tenant(7);
    assert_eq!(answers(&mut client, q, tenant_doc), tenant_answers);
    client.set_tenant(0);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn snapshots_compose_with_the_log_tail() {
    // Each trigger cuts on the second verb and leaves the third in the
    // fresh log tail: every 2 verbs, or once the log reaches
    // `TWO_VERBS_BYTES` (the two first `add_doc` lines together exceed it,
    // the first or the third alone does not).
    const TWO_VERBS_BYTES: u64 = 100;
    for (snapshot_every, snapshot_bytes) in [(2, 0), (0, TWO_VERBS_BYTES)] {
        let dir = TempDir::new(&format!("snapshot-{snapshot_every}-{snapshot_bytes}"));
        {
            let server = boot_durable_sized(&dir, snapshot_every, snapshot_bytes);
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.add_doc(b"abababab").unwrap();
            client.add_doc(b"aabb").unwrap(); // triggers a snapshot
            client.add_doc(b"babaab").unwrap(); // lands in the fresh log tail
            let scrape = client.stats().unwrap();
            assert_eq!(series(&scrape, "spanner_store_snapshots_total"), 1);
            assert_eq!(series(&scrape, "spanner_store_log_records"), 1);
            client.shutdown().unwrap();
            server.join();
        }
        let server = boot_durable_sized(&dir, snapshot_every, snapshot_bytes);
        let report = *server.recovery().unwrap();
        assert!(report.from_snapshot, "the cut snapshot must be used");
        assert_eq!(report.replayed_verbs, 1, "one verb rides the log tail");
        assert_eq!(report.documents, 3, "snapshot image + log tail compose");

        let mut client = Client::connect(server.local_addr()).unwrap();
        let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
        let (count, _) = client.count(q, 0).unwrap();
        assert_eq!(count, 4);
        let (count, _) = client.count(q, 2).unwrap();
        assert_eq!(count, 2);
        client.shutdown().unwrap();
        server.join();
    }
}

#[test]
fn log_size_triggers_snapshots_and_attributes_them() {
    let dir = TempDir::new("sizetrigger");
    {
        // Cadence off; with no snapshot yet, any non-empty log (≥ 1 byte)
        // trips the size trigger, so the first verb cuts one inline before
        // it is answered.  Later cuts also wait for the log to outgrow the
        // current snapshot: the second line does not, the second and third
        // together do.
        let server = boot_durable_sized(&dir, 0, 1);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.add_doc(b"abababab").unwrap();
        client.add_doc(b"aabb").unwrap();
        client.add_doc(b"babaab").unwrap();
        let scrape = client.stats().unwrap();
        assert_eq!(series(&scrape, SIZE_TRIGGERS), 2, "{scrape}");
        assert_eq!(series(&scrape, "spanner_store_snapshots_total"), 2);
        assert_eq!(series(&scrape, "spanner_store_log_records"), 0);
        assert_eq!(series(&scrape, CADENCE_TRIGGERS), 0, "cadence is off");
        client.shutdown().unwrap();
        server.join();
    }
    // The size-triggered snapshots compose with recovery like cadence ones.
    let server = boot_durable_sized(&dir, 0, 1);
    let report = *server.recovery().unwrap();
    assert!(report.from_snapshot);
    assert_eq!(report.documents, 3);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    let (count, _) = client.count(q, 0).unwrap();
    assert_eq!(count, 4);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn size_snapshots_stay_logarithmic_in_a_registration_burst() {
    // Every `add_doc` line alone exceeds `snapshot_bytes = 1`.  The size
    // trigger also waits for the log to outgrow the current snapshot, so
    // the image roughly doubles between cuts: about log₂(64) snapshots for
    // 64 equal registrations, not one per verb.
    let dir = TempDir::new("sizeburst");
    let server = boot_durable_sized(&dir, 0, 1);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..64 {
        client.add_doc(b"abababababababab").unwrap();
    }
    let scrape = client.stats().unwrap();
    let snapshots = series(&scrape, "spanner_store_snapshots_total");
    assert_eq!(series(&scrape, SIZE_TRIGGERS), snapshots);
    assert!(
        (1..=8).contains(&snapshots),
        "{snapshots} snapshots for 64 verbs"
    );
    client.shutdown().unwrap();
    server.join();
    let server = boot_durable_sized(&dir, 0, 1);
    assert_eq!(server.recovery().unwrap().documents, 64);
    server.shutdown_and_join();
}

#[test]
fn cadence_wins_attribution_when_both_triggers_fire() {
    let dir = TempDir::new("bothtriggers");
    let server = boot_durable_sized(&dir, 1, 1); // both trip on every verb
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.add_doc(b"abab").unwrap();
    client.add_doc(b"baba").unwrap();
    let scrape = client.stats().unwrap();
    assert_eq!(series(&scrape, "spanner_store_snapshots_total"), 2);
    assert_eq!(
        series(&scrape, CADENCE_TRIGGERS),
        2,
        "cadence takes attribution"
    );
    assert_eq!(series(&scrape, SIZE_TRIGGERS), 0);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn shard_layouts_survive_restart() {
    let dir = TempDir::new("layout");
    let text = b"abababababababababababababababab";
    let k = {
        let server = boot_durable(&dir, 0);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let receipt = client.add_doc_sharded(text, 4).unwrap();
        assert_eq!(receipt.shards, 4);
        client.shutdown().unwrap();
        server.join();
        receipt.shards
    };
    let server = boot_durable(&dir, 0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Re-adding the same text must mint a *new* id (1) — proving id 0 is
    // still occupied by the replayed registration — with the same layout
    // available for comparison.
    let again = client.add_doc_sharded(text, 4).unwrap();
    assert_eq!(again.id, 1);
    assert_eq!(again.shards, k);
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    let (a, _) = client.count(q, 0).unwrap();
    let (b, _) = client.count(q, 1).unwrap();
    assert_eq!(a, b, "replayed layout answers like a fresh registration");
    client.shutdown().unwrap();
    server.join();
}

/// A log written by an earlier build may hold `reshard` records (a
/// background policy once re-cut documents and logged the new count).
/// Replay must still boot such a directory at the recorded count, with
/// no `auto_k` probe, and answer like a fresh registration.
#[test]
fn recorded_reshards_replay_at_the_recorded_shard_count() {
    let dir = TempDir::new("reshard");
    let text = b"abababababababababababababababab";
    {
        let (store, _) = Store::open(&dir.0).unwrap();
        store
            .append(&LogVerb::AddDoc {
                tenant: 0,
                wire_id: 0,
                text: text.to_vec(),
                shards: 1,
            })
            .unwrap();
        store
            .append(&LogVerb::Reshard {
                tenant: 0,
                wire_id: 0,
                shards: 3,
            })
            .unwrap();
    }
    let server = boot_durable(&dir, 0);
    assert_eq!(server.recovery().unwrap().documents, 1);
    assert_eq!(server.service().auto_probe_count(), 0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    client.set_tracing(true);
    let (replayed, _) = client.count(q, 0).unwrap();
    let spans = client
        .last_trace()
        .expect("sampled cold build returns a trace");
    let passes = spans.iter().filter(|s| s.name == "shard_pass").count();
    assert_eq!(passes, 3, "replayed at the recorded count: {spans:?}");
    client.set_tracing(false);
    let fresh = client.add_doc_sharded(text, 1).unwrap();
    assert_eq!(fresh.shards, 1);
    let (monolithic, _) = client.count(q, fresh.id).unwrap();
    assert_eq!(replayed, monolithic);
    client.shutdown().unwrap();
    server.join();
}

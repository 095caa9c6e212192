//! Durability acceptance tests for the write-ahead-log sidecar:
//!
//! * **replay byte-identity** — a durable store that dies after N live
//!   ingests reopens (single and sharded) to the *same container bytes*
//!   an offline [`StoreBuilder`] run over the same batches produces;
//! * **checkpoint lifecycle** — `checkpoint()` rewrites the container
//!   atomically, truncates the log, and the next open replays nothing;
//!   a checkpoint interrupted between the save and the truncation is
//!   completed on the next open (the absorbed prefix is skipped and
//!   dropped from disk);
//! * **wire surface** — the `tail` and `checkpoint` ops over
//!   [`wire::execute`], including the `tail_gap` answer
//!   after a truncation and the idempotent `deduped` re-send answer;
//! * **replication** — a read-only follower driven by
//!   [`serve::follow`] against a live writable leader converges to the
//!   leader's epoch and answers every probe byte-identically.
//!
//! `docs/DURABILITY.md` documents the guarantees these tests pin.

use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use utcq::core::serve::{self, Server};
use utcq::core::shard::ByTime;
use utcq::core::wal::{Record, Wal};
use utcq::core::{
    wire, CompressParams, Error, FsyncPolicy, Opened, QueryTarget, StiuParams, Store, StoreBuilder,
    WalConfig,
};
use utcq::network::{EdgeId, RoadNetwork};
use utcq::traj::{Dataset, UncertainTrajectory};

const STIU: StiuParams = StiuParams {
    partition_s: 900,
    grid_n: 8,
};

/// A scratch directory unique to one test.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("utcq-durab-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    dir
}

/// A tiny dataset split into three arrival batches.
fn batches(n: usize, seed: u64) -> (Arc<RoadNetwork>, Vec<Dataset>) {
    let (net, mut ds) = utcq::datagen::generate(&utcq::datagen::profile::tiny(), n, seed);
    let third = n / 3;
    let mut b2 = ds.clone();
    let mut b3 = ds.clone();
    let tail = ds.trajectories.split_off(third);
    b2.trajectories = tail;
    b3.trajectories = b2.trajectories.split_off(third);
    (Arc::new(net), vec![ds, b2, b3])
}

fn params(ds: &Dataset) -> CompressParams {
    CompressParams::with_interval(ds.default_interval)
}

fn single_store(net: &Arc<RoadNetwork>, batches: &[&Dataset]) -> Store {
    let mut b = StoreBuilder::new(Arc::clone(net), params(batches[0])).stiu_params(STIU);
    for ds in batches {
        b = b.ingest(ds).expect("builder ingest");
    }
    b.finish().expect("builder finish")
}

fn sharded_store(net: &Arc<RoadNetwork>, batches: &[&Dataset]) -> Store {
    let mut b = StoreBuilder::new(Arc::clone(net), params(batches[0]))
        .stiu_params(STIU)
        .shard_by(Arc::new(ByTime { interval_s: 120 }), 3)
        .expect("shard");
    for ds in batches {
        b = b.ingest(ds).expect("builder ingest");
    }
    b.finish().expect("builder finish")
}

/// The offline build of one store shape over a batch history, as the
/// live handle a reopen of its container yields.
type Build<'a> = &'a dyn Fn(&[&Dataset]) -> Opened;

/// Runs `case` once per store shape with a tag and that shape's offline
/// constructor; everything past construction goes through the shared
/// [`utcq::core::Opened`] handle.
fn for_each_shape(net: &Arc<RoadNetwork>, case: impl Fn(&str, Build)) {
    case("single", &|history| {
        Opened::Single(Box::new(single_store(net, history)))
    });
    case("sharded", &|history| {
        Opened::Sharded(Box::new(sharded_store(net, history)))
    });
}

/// The container bytes (v2 or v3) of a live handle.
fn container_bytes(opened: &Opened) -> Vec<u8> {
    let (Opened::Single(s) | Opened::Sharded(s)) = opened;
    let mut bytes = Vec::new();
    s.write(&mut bytes).expect("serialize store");
    bytes
}

fn save(opened: &Opened, path: &Path) {
    std::fs::write(path, container_bytes(opened)).expect("save container");
}

#[test]
fn durable_reopen_replays_byte_identically() {
    let (net, all) = batches(9, 61);
    for_each_shape(&net, |shape, build| {
        let dir = tmp_dir(&format!("replay-{shape}"));
        let container = dir.join("c.utcq");
        save(&build(&[&all[0]]), &container);
        let wal_cfg = || WalConfig::new(dir.join("log.wal"));

        // Two live ingests under the log, then the process "dies".
        let store = Opened::open_durable(&container, wal_cfg()).expect("open durable");
        store.ingest(&all[1]).expect("ingest b");
        store.ingest(&all[2]).expect("ingest c");
        drop(store);

        // Reopen: both batches replay, and the state is byte-identical
        // to the offline build over the full history.
        let reopened = Opened::open_durable(&container, wal_cfg()).expect("reopen");
        assert_eq!(reopened.epoch(), 2, "{shape}: both batches replay");
        assert_eq!(
            container_bytes(&reopened),
            container_bytes(&build(&[&all[0], &all[1], &all[2]])),
            "{shape}: replayed store must serialize identically to the offline build"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn checkpoint_truncates_the_log_and_the_next_open_replays_nothing() {
    let (net, all) = batches(9, 63);
    for_each_shape(&net, |shape, build| {
        let dir = tmp_dir(&format!("ckpt-{shape}"));
        let container = dir.join("c.utcq");
        save(&build(&[&all[0]]), &container);
        // `open_durable` defaults the checkpoint target to the container.
        let wal_cfg = || WalConfig::new(dir.join("log.wal"));

        let store = Opened::open_durable(&container, wal_cfg()).expect("open durable");
        store.ingest(&all[1]).expect("ingest");
        let before = store.wal_bytes().expect("wal attached");
        let report = store
            .checkpoint()
            .expect("checkpoint")
            .expect("target configured");
        assert_eq!(report.epoch, 1, "{shape}");
        assert_eq!(report.log_bytes, before, "{shape}");
        assert!(
            store.wal_bytes().expect("wal attached") < before,
            "{shape}: checkpoint must truncate the log"
        );
        drop(store);

        let fresh = Opened::open_durable(&container, wal_cfg()).expect("post-checkpoint open");
        assert_eq!(fresh.epoch(), 0, "{shape}: nothing left to replay");
        assert_eq!(
            container_bytes(&fresh),
            container_bytes(&build(&[&all[0], &all[1]])),
            "{shape}: checkpointed container must hold the full history"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn interrupted_checkpoint_truncation_is_completed_on_reopen() {
    let (net, all) = batches(9, 64);
    for_each_shape(&net, |shape, build| {
        let dir = tmp_dir(&format!("ckpt-interrupted-{shape}"));
        let container = dir.join("c.utcq");
        save(&build(&[&all[0]]), &container);
        let wal_cfg = || WalConfig::new(dir.join("log.wal"));

        // A checkpoint that crashed between the container save and the
        // log truncation: the container already holds the batch, the
        // log still carries its record.
        let store = Opened::open_durable(&container, wal_cfg()).expect("open durable");
        store.ingest(&all[1]).expect("ingest");
        save(&store, &container);
        drop(store);

        // Reopen: the absorbed prefix is recognized (every trajectory
        // already present), skipped rather than double-applied, and the
        // interrupted truncation completes on disk.
        let reopened = Opened::open_durable(&container, wal_cfg()).expect("reopen");
        assert_eq!(reopened.epoch(), 0, "{shape}: nothing replays");
        assert_eq!(
            container_bytes(&reopened),
            container_bytes(&build(&[&all[0], &all[1]])),
            "{shape}"
        );
        drop(reopened);
        let scan = utcq::core::wal::scan(&std::fs::read(dir.join("log.wal")).expect("read log"))
            .expect("scan log");
        assert!(
            scan.records.is_empty() && !scan.torn,
            "{shape}: the absorbed prefix must be dropped from disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A log record naming an edge past the network (a log written against
/// another network, or edited) fails the durable open with an error, not
/// a panic in compression, and leaves the container as it was.
#[test]
fn a_record_off_the_network_fails_the_open_and_leaves_the_container() {
    let (net, all) = batches(9, 66);
    for_each_shape(&net, |shape, build| {
        let dir = tmp_dir(&format!("off-network-{shape}"));
        let container = dir.join("c.utcq");
        save(&build(&[&all[0]]), &container);
        let before = std::fs::read(&container).expect("read container");
        let mut stray = all[1].trajectories[0].clone();
        stray.instances[0].path[0] = EdgeId(net.edge_count() as u32 + 5);
        let wal_cfg = || WalConfig::new(dir.join("log.wal"));
        let (mut log, _) = Wal::open(&wal_cfg()).expect("open log");
        let record = Record {
            epoch: 1,
            name: all[1].name.clone(),
            default_interval: all[1].default_interval,
            trajectories: vec![stray],
        };
        log.append(&record).expect("append");
        drop(log);

        let opened = Opened::open_durable(&container, wal_cfg());
        assert!(
            matches!(opened, Err(Error::InvalidTrajectory { at: 0, .. })),
            "{shape}: {opened:?}"
        );
        let after = std::fs::read(&container).expect("reread container");
        assert!(after == before, "{shape}: the container must not change");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn fsync_policies_all_accept_writes_and_replay() {
    let (net, all) = batches(9, 65);
    for_each_shape(&net, |shape, build| {
        for (tag, policy) in [
            ("always", FsyncPolicy::Always),
            ("every2", FsyncPolicy::EveryN(2)),
            ("never", FsyncPolicy::Never),
        ] {
            let dir = tmp_dir(&format!("fsync-{tag}-{shape}"));
            let container = dir.join("c.utcq");
            save(&build(&[&all[0]]), &container);
            let wal_cfg = || WalConfig::new(dir.join("log.wal")).fsync(policy);
            let store = Opened::open_durable(&container, wal_cfg()).expect("open durable");
            store.ingest(&all[1]).expect("ingest b");
            store.ingest(&all[2]).expect("ingest c");
            drop(store);
            let reopened = Opened::open_durable(&container, wal_cfg()).expect("reopen");
            assert_eq!(reopened.epoch(), 2, "{tag} {shape}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

/// Serializes a trajectory into the `ingest` request shape of
/// `PROTOCOL.md`.
fn trajectory_json(tu: &UncertainTrajectory) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, r#"{{"id":{},"times":["#, tu.id);
    for (i, t) in tu.times.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{t}");
    }
    out.push_str("],\"instances\":[");
    for (w, inst) in tu.instances.iter().enumerate() {
        if w > 0 {
            out.push(',');
        }
        let _ = write!(out, r#"{{"prob":{},"path":["#, inst.prob);
        for (i, e) in inst.path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", e.0);
        }
        out.push_str("],\"positions\":[");
        for (i, p) in inst.positions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", p.path_idx, p.rd);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn ingest_line(id: u64, batch: &Dataset) -> String {
    let tus: Vec<String> = batch.trajectories.iter().map(trajectory_json).collect();
    format!(
        r#"{{"id":{id},"op":"ingest","name":"{}","interval":{},"trajectories":[{}]}}"#,
        batch.name,
        batch.default_interval,
        tus.join(",")
    )
}

#[test]
fn wire_tail_checkpoint_and_dedup_roundtrip() {
    let dir = tmp_dir("wire");
    let (net, all) = batches(9, 66);
    let container = dir.join("c.utcq");
    single_store(&net, &[&all[0]])
        .save(&container)
        .expect("seed container");
    let opened =
        Opened::open_durable(&container, WalConfig::new(dir.join("log.wal"))).expect("open");

    // Ingest over the wire; the record lands in the log's feed.
    let line = ingest_line(1, &all[1]);
    let reply = wire::execute(&opened, true, &line).line;
    assert!(reply.contains(r#""op":"ingest""#), "{reply}");
    assert!(reply.contains(r#""epoch":1"#), "{reply}");

    // Re-sending the identical batch answers idempotently instead of
    // failing on the duplicate ids.
    let retry = wire::execute(&opened, true, &line).line;
    assert!(retry.contains(r#""deduped":true"#), "{retry}");
    assert!(retry.contains(r#""epoch":1"#), "{retry}");

    // `tail` from 0 streams the accepted batch; the reply parses back
    // bit-for-bit through the follower's own parser.
    let tail = wire::execute(&opened, true, r#"{"id":2,"op":"tail","from":0}"#).line;
    let (got, current) = wire::parse_tail_reply(&tail).expect("tail parses");
    assert_eq!(current, 1);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, 1, "batch epoch");
    assert_eq!(got[0].1.trajectories, all[1].trajectories, "bit-for-bit");

    // `checkpoint` rewrites the container and truncates the feed …
    let ck = wire::execute(&opened, true, r#"{"id":3,"op":"checkpoint"}"#).line;
    assert!(ck.contains(r#""op":"checkpoint","epoch":1"#), "{ck}");

    // … after which a resume from before the truncation point is a
    // `tail_gap` (re-sync from a fresh copy), while the current epoch
    // resumes cleanly.
    let gap = wire::execute(&opened, true, r#"{"id":4,"op":"tail","from":0}"#).line;
    assert!(gap.contains(r#""code":"tail_gap""#), "{gap}");
    let ok = wire::execute(&opened, true, r#"{"id":5,"op":"tail","from":1}"#).line;
    let (rest, _) = wire::parse_tail_reply(&ok).expect("tail parses");
    assert!(rest.is_empty(), "{ok}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tail` and dedup read their batches back from the log file: a batch
/// ingested after a checkpoint (the log cut back to its header) comes
/// back bit for bit, and a batch the open replayed is recognised when
/// a client re-sends it.
#[test]
fn tail_and_dedup_read_batches_from_the_log_after_a_checkpoint_and_a_replay() {
    let dir = tmp_dir("tail-from-log");
    let (net, all) = batches(9, 67);
    let container = dir.join("c.utcq");
    single_store(&net, &[&all[0]])
        .save(&container)
        .expect("seed container");
    let wal_cfg = || WalConfig::new(dir.join("log.wal"));
    let opened = Opened::open_durable(&container, wal_cfg()).expect("open");
    let reply = wire::execute(&opened, true, &ingest_line(1, &all[1])).line;
    assert!(reply.contains(r#""epoch":1"#), "{reply}");
    let ck = wire::execute(&opened, true, r#"{"id":2,"op":"checkpoint"}"#).line;
    assert!(ck.contains(r#""epoch":1"#), "{ck}");

    // The next batch lands right behind the header again.
    let line = ingest_line(3, &all[2]);
    let reply = wire::execute(&opened, true, &line).line;
    assert!(reply.contains(r#""epoch":2"#), "{reply}");
    let tail = wire::execute(&opened, true, r#"{"id":4,"op":"tail","from":1}"#).line;
    let (got, current) = wire::parse_tail_reply(&tail).expect("tail parses");
    assert_eq!(current, 2);
    assert_eq!(got.len(), 1, "{tail}");
    assert_eq!(got[0].0, 2, "batch epoch");
    assert_eq!(got[0].1.trajectories, all[2].trajectories, "bit-for-bit");
    drop(opened);

    // Reopened, the batch is replayed from the log; its re-send is
    // answered from the log, not refused as a duplicate.
    let reopened = Opened::open_durable(&container, wal_cfg()).expect("reopen");
    assert_eq!(reopened.epoch(), 1, "the post-checkpoint batch replays");
    let retry = wire::execute(&reopened, true, &line).line;
    assert!(retry.contains(r#""deduped":true"#), "{retry}");
    assert!(retry.contains(r#""epoch":1"#), "{retry}");
    let tail = wire::execute(&reopened, true, r#"{"id":5,"op":"tail","from":0}"#).line;
    let (got, _) = wire::parse_tail_reply(&tail).expect("tail parses");
    assert_eq!(got.len(), 1, "{tail}");
    assert_eq!(got[0].1.trajectories, all[2].trajectories, "bit-for-bit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.writer.write_all(request.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        line.trim_end().to_string()
    }
}

#[test]
fn follower_converges_and_answers_byte_identically() {
    let dir = tmp_dir("follow");
    let (net, all) = batches(9, 67);
    let container = dir.join("c.utcq");
    single_store(&net, &[&all[0]])
        .save(&container)
        .expect("seed container");

    // Leader: durable, writable, behind a real TCP server.
    let leader = Arc::new(
        Opened::open_durable(&container, WalConfig::new(dir.join("log.wal"))).expect("leader"),
    );
    let server = Server::bind(Arc::clone(&leader), "127.0.0.1:0", 2)
        .expect("bind")
        .writable(true);
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));

    // Follower: a second opening of the same seed container, streaming
    // the leader's log.
    let follower = Arc::new(Opened::open(&container).expect("follower"));
    let stop = Arc::new(AtomicBool::new(false));
    let follow_thread = {
        let follower = Arc::clone(&follower);
        let stop = Arc::clone(&stop);
        let leader_addr = addr.to_string();
        std::thread::spawn(move || serve::follow(&follower, &leader_addr, &stop))
    };

    // Two batches arrive at the leader over the wire.
    let mut client = Client::connect(addr);
    for (i, batch) in [&all[1], &all[2]].into_iter().enumerate() {
        let reply = client.roundtrip(&ingest_line(10 + i as u64, batch));
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }

    // The follower converges to the leader's epoch.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while follower.epoch() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "follower stuck at epoch {}",
            follower.epoch()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    follow_thread
        .join()
        .expect("follow thread")
        .expect("follow exits clean on stop");
    handle.shutdown();
    runner.join().expect("server thread");

    // Every probe answers byte-identically on leader and follower.
    assert_eq!(follower.len(), leader.len());
    let bounds = leader.network().bounding_rect();
    for batch in &all {
        for tu in &batch.trajectories {
            let mid = (tu.times[0] + tu.times[tu.times.len() - 1]) / 2;
            for probe in [
                format!(r#"{{"op":"where","traj":{},"t":{mid},"alpha":0}}"#, tu.id),
                format!(
                    r#"{{"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":{mid},"alpha":0.1,"limit":8}}"#,
                    bounds.min_x, bounds.min_y, bounds.max_x, bounds.max_y
                ),
            ] {
                assert_eq!(
                    wire::handle_line(&leader, &probe).line,
                    wire::handle_line(&follower, &probe).line,
                    "{probe}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

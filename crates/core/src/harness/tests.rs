//! What `benchmark/src/sut.rs` relies on `Opened` for. Tier-1 reaches
//! the shim only here: the system's own callers take `Store`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use super::Opened;
use crate::query::{PageRequest, QueryTarget};
use crate::serve::Server;
use crate::store::{Store, StoreBuilder};
use crate::wal::WalConfig;
use crate::CompressParams;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

#[test]
fn opened_is_send_sync_and_static() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Opened>();
}

#[test]
fn open_tags_each_fixture_by_its_routing_policy() {
    let single = Opened::open(fixture("tiny_v8.utcq")).expect("tiny_v8");
    let sharded = Opened::open(fixture("tiny_v8_sharded.utcq")).expect("tiny_v8_sharded");
    assert!(matches!(single, Opened::Single(_)));
    assert!(matches!(sharded, Opened::Sharded(_)));
}

#[test]
fn open_durable_replays_a_logged_batch() {
    let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 8, 41);
    let mut batches = ds.clone();
    let second = batches.trajectories.split_off(4);
    let dir = std::env::temp_dir().join(format!("utcq-harness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let (container, log) = (dir.join("c.utcq"), dir.join("log.wal"));
    let _ = std::fs::remove_file(&log);
    let params = CompressParams::with_interval(ds.default_interval);
    let builder = StoreBuilder::new(Arc::new(net), params);
    let store = builder.ingest(&batches).and_then(|b| b.finish());
    store.expect("build").save(&container).expect("save");
    batches.trajectories = second;
    let opened = Opened::open_durable(&container, WalConfig::new(&log)).expect("open");
    assert_eq!(opened.ingest(&batches).expect("ingest").epoch, 1);
    drop(opened);
    let reopened = Opened::open_durable(&container, WalConfig::new(&log)).expect("reopen");
    assert_eq!((reopened.epoch(), reopened.target().len()), (1, 8));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn target_answers_where_as_the_store_does() {
    let store = Store::open(fixture("tiny_v8.utcq")).expect("store");
    let opened = Opened::open(fixture("tiny_v8.utcq")).expect("opened");
    let id = store.snapshots()[0]
        .compressed()
        .trajectories
        .get(0)
        .expect("a trajectory")
        .id;
    let times = store.decode_times(id).expect("decode").expect("stored");
    let mid = (times[0] + times[times.len() - 1]) / 2;
    let probe = |target: &dyn QueryTarget| target.where_query(id, mid, 0.0, PageRequest::all());
    let want = probe(&store).expect("where");
    assert!(!want.items.is_empty());
    assert_eq!(probe(opened.target()).expect("where"), want);
}

#[test]
fn server_binds_an_arc_of_opened() {
    let opened = Arc::new(Opened::open(fixture("tiny_v8.utcq")).expect("open"));
    let server = Server::bind(opened, "127.0.0.1:0", 1).expect("bind");
    let (addr, handle) = (server.local_addr(), server.handle());
    let runner = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(b"{\"op\":\"ping\",\"id\":1}\n")
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim_end(), r#"{"id":1,"ok":true,"op":"ping"}"#);
    handle.shutdown();
    runner.join().expect("server thread").expect("run");
}

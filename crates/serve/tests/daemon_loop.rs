//! End-to-end daemon tests over localhost TCP: upload → batch commit →
//! drift detection → hint hot-swap, plus protocol-level error handling
//! on raw sockets. Every test skips (rather than fails) when the
//! sandbox forbids binding sockets.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;

use apt_ingest::{AggregateProfile, ProfileDb};
use apt_metrics::Registry;
use apt_serve::{protocol, Client, ClientError, ShardStore};
use common::{dump, scratch, try_daemon};

#[test]
fn upload_drift_and_hot_swap_loop() {
    let root = scratch("loop");
    let registry = Registry::new();
    let reg = registry.clone();
    let Some(daemon) = try_daemon(&root, move |c| c.registry = reg) else {
        return;
    };

    let mut client = Client::connect(daemon.addr()).expect("connect");
    let calm = dump(100, 4);
    let reply = client
        .upload_reader("BFS", "epoch-1", calm.len() as u64, &mut calm.as_bytes())
        .expect("first upload");
    assert_eq!(reply.events, 8, "4 LBR lines + 4 PEBS lines");
    assert_eq!(reply.shard_epochs, 1);
    assert!(!reply.drifted, "one epoch has no baseline");
    assert_eq!(reply.generation, None);

    // A second connection uploads a drifted epoch: latency center moved
    // 100 → 400 cycles, so the deployed Eq.1 distance is stale.
    let mut client2 = Client::connect(daemon.addr()).expect("connect 2");
    let moved = dump(400, 4);
    let reply = client2
        .upload_reader("BFS", "epoch-2", moved.len() as u64, &mut moved.as_bytes())
        .expect("drifted upload");
    assert_eq!(reply.shard_epochs, 2);
    assert!(reply.drifted, "far-away center must exceed the threshold");
    assert!(reply.max_tv > 0.9, "max_tv {}", reply.max_tv);
    assert_eq!(reply.generation, Some(1), "first hot-swap");
    // The reply is written after the commit drained, so a sequential
    // uploader sees an idle committer queue (the backpressure signal).
    assert_eq!(reply.queue_depth, 0, "sequential uploads never backlog");

    // The hot-swapped hint file matches an offline re-derivation from
    // the shard the daemon wrote.
    let store = ShardStore::open(root.join("db")).unwrap();
    let db = store.load("BFS");
    assert_eq!(db.epochs.len(), 2);
    let hints = std::fs::read_to_string(root.join("hints/BFS/current.hints")).unwrap();
    assert_eq!(hints, "# hints for BFS\nepoch-1 4\nepoch-2 4\n");
    assert!(root.join("hints/BFS/gen-000001.hints").exists());
    assert!(root.join("hints/BFS/drift.txt").exists());
    let log = std::fs::read_to_string(root.join("hints/BFS/swap.log")).unwrap();
    assert!(log.contains("swap gen=000001"), "{log}");

    // Status is served on either connection and reflects the commit.
    let status = client.status("BFS").expect("status");
    assert!(
        status.starts_with("tenant BFS: 2 epoch(s), hints active\n"),
        "{status}"
    );
    assert!(status.contains("epoch-1: 4 lbr snapshot(s)"), "{status}");

    // The JSON status carries the same facts, machine-readable: it
    // parses with the in-repo parser and matches the offline render.
    let json_report = client.status_json("BFS").expect("status json");
    let parsed = apt_metrics::json::parse(&json_report).expect("status json parses");
    assert_eq!(parsed.str_field("tenant").unwrap(), "BFS");
    assert_eq!(parsed.u64_field("epochs").unwrap(), 2);
    assert_eq!(
        parsed
            .get("hints_active")
            .and_then(apt_metrics::json::Json::as_bool),
        Some(true)
    );
    assert_eq!(
        json_report,
        apt_serve::status_json(&store, &root.join("hints"), "BFS", None),
        "wire JSON must match the offline render of the same state"
    );

    // Per-tenant metrics moved on the shared registry.
    assert_eq!(
        registry.counter_value("apt_serve_epochs_ingested_total", &[("tenant", "BFS")]),
        Some(2)
    );
    assert_eq!(
        registry.counter_value("apt_serve_reoptimize_total", &[("tenant", "BFS")]),
        Some(1)
    );
    assert_eq!(
        registry.counter_value("apt_serve_drift_exceeded_total", &[("tenant", "BFS")]),
        Some(1)
    );
    assert_eq!(
        registry.counter_value("apt_serve_connections_total", &[]),
        Some(2)
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_labels_are_rejected_and_the_connection_survives() {
    let root = scratch("dup");
    let Some(daemon) = try_daemon(&root, |_| {}) else {
        return;
    };
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let text = dump(100, 2);
    client
        .upload_reader("t", "e1", text.len() as u64, &mut text.as_bytes())
        .expect("first upload");
    let err = client
        .upload_reader("t", "e1", text.len() as u64, &mut text.as_bytes())
        .expect_err("duplicate label must be rejected");
    match err {
        ClientError::Server(m) => assert!(m.contains("duplicate"), "{m}"),
        other => panic!("expected a server rejection, got {other}"),
    }
    // Same connection, next upload: still frame-aligned.
    let reply = client
        .upload_reader("t", "e2", text.len() as u64, &mut text.as_bytes())
        .expect("upload after rejection");
    assert_eq!(reply.shard_epochs, 2);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn parse_errors_mid_body_keep_the_connection_usable() {
    let root = scratch("parse-err");
    let Some(daemon) = try_daemon(&root, |_| {}) else {
        return;
    };
    let mut client = Client::connect(daemon.addr()).expect("connect");

    // A truncated mem-loads record of a *known* kind is a hard parse
    // error; the daemon must drain the rest of the body and reply.
    let bad = "aptgetsim 0 [000] 1.000000: cpu/mem-loads,ldlat=30/P: 0x24 weight: 120\n\
               this line is never even reached by the parser\n";
    let err = client
        .upload_reader("t", "bad", bad.len() as u64, &mut bad.as_bytes())
        .expect_err("malformed dump must be rejected");
    match err {
        ClientError::Server(m) => {
            assert!(m.contains("parse failed"), "{m}");
            assert!(m.contains("line 1"), "error keeps location: {m}");
        }
        other => panic!("expected a server rejection, got {other}"),
    }

    let good = dump(100, 2);
    let reply = client
        .upload_reader("t", "e1", good.len() as u64, &mut good.as_bytes())
        .expect("upload after parse error");
    assert_eq!(reply.shard_epochs, 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn epoch_cap_garbage_collects_history() {
    let root = scratch("gc");
    let Some(daemon) = try_daemon(&root, |c| c.epoch_cap = 2) else {
        return;
    };
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let text = dump(100, 2);
    for label in ["e1", "e2", "e3"] {
        client
            .upload_reader("t", label, text.len() as u64, &mut text.as_bytes())
            .expect("upload");
    }
    let status = client.status("t").expect("status");
    assert!(status.starts_with("tenant t: 2 epoch(s)"), "{status}");
    assert!(!status.contains("e1:"), "oldest label evicted: {status}");
    assert!(status.contains("e2:") && status.contains("e3:"), "{status}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_bodies_and_bad_tenants_are_refused() {
    let root = scratch("caps");
    let Some(daemon) = try_daemon(&root, |c| c.max_body = 1024) else {
        return;
    };

    // Client-side validation catches bad names before any bytes move.
    let mut client = Client::connect(daemon.addr()).expect("connect");
    assert!(matches!(
        client.upload_reader("../escape", "e", 1, &mut &b"x"[..]),
        Err(ClientError::Protocol(_))
    ));

    // A raw socket bypasses the client checks; the server must refuse
    // an oversized body announcement before reading any of it.
    let mut raw = TcpStream::connect(daemon.addr()).expect("raw connect");
    raw.write_all(protocol::HELLO).unwrap();
    protocol::write_upload_header(
        &mut raw,
        &protocol::UploadHeader {
            tenant: "t".into(),
            label: "big".into(),
            body_len: 10 << 20,
        },
    )
    .unwrap();
    match protocol::read_upload_reply(&mut raw).unwrap() {
        apt_serve::Reply::Err(m) => assert!(m.contains("exceeds"), "{m}"),
        other => panic!("expected an error reply, got {other:?}"),
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bad_hello_is_rejected() {
    let root = scratch("hello");
    let Some(daemon) = try_daemon(&root, |_| {}) else {
        return;
    };
    let mut raw = TcpStream::connect(daemon.addr()).expect("raw connect");
    raw.write_all(b"GET / HT").unwrap();
    match protocol::read_upload_reply(&mut raw).unwrap() {
        apt_serve::Reply::Err(m) => assert!(m.contains("APTS1"), "{m}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The daemon closed the connection after the bad hello.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn status_renders_the_committed_shard_not_the_file() {
    let root = scratch("out-of-band");
    let Some(daemon) = try_daemon(&root, |_| {}) else {
        return;
    };
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let text = dump(100, 2);
    client
        .upload_reader("t", "e1", text.len() as u64, &mut text.as_bytes())
        .expect("first upload");
    let committed = client.status("t").expect("status");
    let committed_json = client.status_json("t").expect("status json");

    // Another writer replaces the shard file behind the daemon's back.
    // The daemon owns its db_dir, so status keeps reporting what it
    // committed, and its next commit overwrites the foreign change.
    let shard = root.join("db").join("t.aptdb");
    let mut foreign = ProfileDb::new();
    foreign.push_epoch("foreign", AggregateProfile::default());
    foreign.save(&shard).unwrap();
    assert_eq!(client.status("t").expect("status"), committed);
    assert_eq!(
        client.status_json("t").expect("status json"),
        committed_json
    );

    client
        .upload_reader("t", "e2", text.len() as u64, &mut text.as_bytes())
        .expect("second upload");
    let labels: Vec<String> = ProfileDb::load_or_empty(&shard)
        .epochs
        .into_iter()
        .map(|e| e.label)
        .collect();
    assert_eq!(labels, ["e1", "e2"]);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kind_1_and_kind_3_framings_interoperate_on_one_connection() {
    let root = scratch("interop");
    let oplog_dir = root.join("oplog");
    let oplog = oplog_dir.clone();
    let Some(daemon) = try_daemon(&root, move |c| {
        c.oplog = Some(apt_serve::OpLogConfig::new(oplog));
    }) else {
        return;
    };

    // One connection mixes all three upload framings: legacy kind-1,
    // kind-3 with a client trace, and kind-3 with trace 0 (daemon
    // assigns). Old clients keep working against a traced daemon.
    let mut client = Client::connect(daemon.addr()).expect("connect");
    let text = dump(100, 4);
    let legacy = client
        .upload_reader("BFS", "epoch-1", text.len() as u64, &mut text.as_bytes())
        .expect("kind-1 upload");
    assert_eq!(legacy.trace, 0, "kind-1 replies carry no trace");

    let text2 = dump(120, 4);
    let traced = client
        .upload_reader_traced(
            "BFS",
            "epoch-2",
            0xBEEF,
            text2.len() as u64,
            &mut text2.as_bytes(),
        )
        .expect("kind-3 upload");
    assert_eq!(traced.trace, 0xBEEF, "reply echoes the client's trace");

    let text3 = dump(140, 4);
    let assigned = client
        .upload_reader_traced(
            "BFS",
            "epoch-3",
            0,
            text3.len() as u64,
            &mut text3.as_bytes(),
        )
        .expect("kind-3 upload, daemon-assigned trace");
    assert_ne!(assigned.trace, 0, "trace 0 asks the daemon to assign one");

    daemon.shutdown();

    // Every upload — legacy included — has a full span chain on the
    // op-log under some nonzero trace ID.
    let records = apt_serve::read_oplog_dir(&oplog_dir).expect("op-log validates");
    let mut by_trace: std::collections::BTreeMap<u64, std::collections::BTreeSet<&str>> =
        std::collections::BTreeMap::new();
    for r in &records {
        if let apt_serve::OpKind::Span { trace, stage, .. } = &r.kind {
            by_trace.entry(*trace).or_default().insert(stage.name());
        }
    }
    assert_eq!(
        by_trace.len(),
        3,
        "three uploads, three traces: {by_trace:?}"
    );
    assert!(by_trace.contains_key(&0xBEEF));
    assert!(
        !by_trace.contains_key(&0),
        "daemon must assign nonzero traces"
    );
    for (trace, stages) in &by_trace {
        for stage in ["parse", "queue", "commit", "drift"] {
            assert!(
                stages.contains(stage),
                "trace {trace:#x} is missing its {stage} span: {stages:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

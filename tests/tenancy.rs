//! Tenant-isolation integration tests: quotas draw the structured `quota`
//! error (not `busy`), wire ids never resolve across tenant namespaces,
//! cache shares protect one tenant's matrices from another's flood, and
//! frames without a tenant field run in the default tenant.

use slp::NormalFormSlp;
use spanner::regex;
use spanner_server::{Client, ClientError, ErrorCode, Server, ServerConfig, TenantSpec};
use spanner_slp_core::service::{Service, Task, TaskRequest, TenantConfig, TenantId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn boot() -> Server {
    Server::bind("127.0.0.1:0", Service::new(), ServerConfig::default()).expect("bind loopback")
}

fn spec(id: u32, max_docs: u64, max_bytes: u64) -> TenantSpec {
    TenantSpec {
        id,
        name: format!("tenant-{id}"),
        max_docs,
        max_corpus_bytes: max_bytes,
        cache_share: 0,
        admission_weight: 1,
    }
}

#[test]
fn quota_exhaustion_is_a_structured_error_not_busy() {
    let server = boot();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.tenant_create(spec(3, 1, 0)).unwrap();
    client.set_tenant(3);
    client.add_doc(b"abab").unwrap();

    let err = client.add_doc(b"abab").unwrap_err();
    match &err {
        ClientError::Server { code, detail } => {
            assert_eq!(*code, ErrorCode::Quota, "want quota, got [{code}] {detail}");
            assert!(detail.contains("quota"), "detail names the quota: {detail}");
        }
        other => panic!("expected a structured server error, got {other}"),
    }
    assert!(
        !err.is_busy(),
        "quota is an admission decision, not backpressure"
    );

    // Byte quotas too.
    client.tenant_create(spec(4, 0, 6)).unwrap();
    client.set_tenant(4);
    let err = client.add_doc(b"abababab").unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Quota,
                ..
            }
        ),
        "byte quota draws the same structured error, got {err}"
    );

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn cross_tenant_ids_do_not_resolve() {
    let server = boot();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.tenant_create(spec(1, 0, 0)).unwrap();
    client.tenant_create(spec(2, 0, 0)).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();

    client.set_tenant(1);
    let doc = client.add_doc(b"abababab").unwrap();
    assert_eq!(doc.id, 0);

    // The same wire id from another tenant (or the default one) is
    // indistinguishable from an unknown id — for tasks *and* removal.
    for other in [2u32, 0u32] {
        client.set_tenant(other);
        let err = client.count(q, doc.id).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Server {
                    code: ErrorCode::UnknownId,
                    ..
                }
            ),
            "tenant {other} must not resolve tenant 1's doc, got {err}"
        );
        let err = client.remove_doc(doc.id).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Server {
                    code: ErrorCode::UnknownId,
                    ..
                }
            ),
            "tenant {other} must not remove tenant 1's doc, got {err}"
        );
    }

    // The owner still resolves it fine.
    client.set_tenant(1);
    let (count, _) = client.count(q, doc.id).unwrap();
    assert_eq!(count, 4);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn cache_shares_protect_a_tenant_from_another_tenants_flood() {
    // Service-level: a tight global budget, tenant 1 holding a reserved
    // share, tenant 2 flooding enumerations over many documents.  Tenant
    // 1's resident matrices must survive the flood.
    let service = Service::builder().cache_budget(256 * 1024).build();
    service.create_tenant(
        TenantId(1),
        TenantConfig {
            name: "protected".into(),
            cache_share: 128 * 1024,
            ..TenantConfig::default()
        },
    );
    service.create_tenant(
        TenantId(2),
        TenantConfig {
            name: "flood".into(),
            ..TenantConfig::default()
        },
    );
    let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
    let protected = service
        .add_document_for(
            TenantId(1),
            &NormalFormSlp::from_document(b"abababab").unwrap(),
        )
        .unwrap();

    // Warm tenant 1's matrices into the cache.
    service
        .run(&TaskRequest {
            query: q,
            doc: protected,
            task: Task::Count,
        })
        .unwrap();
    let resident_before = service.tenant_cache_resident(TenantId(1));
    assert!(resident_before > 0, "the warm-up must cache something");

    // Tenant 2 floods: many distinct documents, each needing fresh
    // matrices, far exceeding the global budget.
    for i in 0..40u32 {
        let text: Vec<u8> = (0..64)
            .map(|j| if (i + j) % 3 == 0 { b'a' } else { b'b' })
            .collect();
        let doc = service
            .add_document_for(TenantId(2), &NormalFormSlp::from_document(&text).unwrap())
            .unwrap();
        service
            .run(&TaskRequest {
                query: q,
                doc,
                task: Task::Enumerate {
                    skip: 0,
                    limit: Some(4),
                },
            })
            .unwrap();
    }

    assert_eq!(
        service.tenant_cache_resident(TenantId(1)),
        resident_before,
        "budget pressure from tenant 2 must not evict tenant 1 below its share"
    );
    // And the protected matrices actually serve a cache hit.
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: protected,
            task: Task::Count,
        })
        .unwrap();
    assert!(
        response.stats.cache_hit,
        "the protected entry is still live"
    );
}

#[test]
fn untenanted_frames_round_trip_in_the_default_tenant() {
    // Raw frames with no "t" key anywhere must register, query and remove
    // against the default tenant.
    let server = boot();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |frame: &str| -> String {
        writer.write_all(frame.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    let reply = call(r#"{"v":3,"op":"add_query","pattern":".*x{ab}.*","alphabet":"ab"}"#);
    assert!(reply.contains("\"query\":0"), "got {reply}");
    let reply = call(r#"{"v":3,"op":"add_doc","text":"abababab"}"#);
    assert!(reply.contains("\"doc\":0"), "got {reply}");
    let reply = call(r#"{"v":3,"op":"task","task":"count","query":0,"doc":0}"#);
    assert!(reply.contains("\"count\":4"), "got {reply}");
    let reply = call(r#"{"v":3,"op":"remove_doc","doc":0}"#);
    assert!(reply.contains("\"removed\":0"), "got {reply}");

    // The doc registered above landed in the default tenant's namespace:
    // a tenant-aware client sees it there (id burned after removal).
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.count(0, 0).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::UnknownId,
            ..
        }
    ));
    client.shutdown().unwrap();
    server.join();
}

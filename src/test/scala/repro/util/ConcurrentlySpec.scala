package repro.util

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import repro.SparkSpec

class ConcurrentlySpec extends SparkSpec {

  test("results come back in input order, whichever task ends first") {
    val out = Concurrently.all(4)((0 until 6).map { i => () =>
      Thread.sleep(10L * (6 - i))
      i * i
    })
    assert(out == (0 until 6).map(i => i * i))
  }

  test("no more than `limit` tasks run at a time") {
    val running = new AtomicInteger(0)
    val peak = new AtomicInteger(0)
    Concurrently.all(2)(Seq.fill(8) { () =>
      peak.accumulateAndGet(running.incrementAndGet(), math.max)
      Thread.sleep(20)
      running.decrementAndGet()
    })
    assert(peak.get == 2)
  }

  test("a failure is rethrown only after every other task has finished") {
    val finished = new AtomicInteger(0)
    val started = new CountDownLatch(3)
    def slow(): Int = { started.countDown(); Thread.sleep(200); finished.incrementAndGet() }
    val e = intercept[IllegalStateException] {
      Concurrently.all(4)(Seq(
        () => slow(),
        () => { started.countDown(); throw new IllegalStateException("first") },
        () => { started.await(5, TimeUnit.SECONDS); throw new IllegalStateException("second") },
        () => slow()))
    }
    assert(finished.get == 2)
    assert(e.getMessage == "first")
    assert(e.getSuppressed.map(_.getMessage).toSeq == Seq("second"))
  }

  test("every task sees the caller's Spark local properties and job group") {
    val sc = spark.sparkContext
    sc.setJobGroup("concurrently-group", "helper test")
    sc.setLocalProperty("repro.test.key", "caller")
    try {
      val seen = Concurrently.all(4)(Seq.fill(4) { () =>
        (sc.getLocalProperty("repro.test.key"), sc.getLocalProperty("spark.jobGroup.id"))
      })
      assert(seen == Seq.fill(4)(("caller", "concurrently-group")))
    } finally {
      sc.setLocalProperty("repro.test.key", null)
      sc.clearJobGroup()
    }
  }

  test("no thread of the helper is alive after it returns or throws") {
    val threads = new ConcurrentLinkedQueue[Thread]()
    def record(): Unit = { threads.add(Thread.currentThread()); Thread.sleep(20) }
    Concurrently.all(3)(Seq.fill(6)(() => record()))
    intercept[RuntimeException] {
      Concurrently.all(3)(Seq.fill(6)(() => record()) :+ (() => throw new RuntimeException("boom")))
    }
    val seen = threads.asScala.toSeq
    assert(seen.size == 12 && !seen.contains(Thread.currentThread()))
    assert(seen.forall(!_.isAlive))
  }

  test("a single task, or a limit of one, runs on the calling thread") {
    val caller = Thread.currentThread()
    assert(Concurrently.all(4)(Seq(() => Thread.currentThread())) == Seq(caller))
    assert(Concurrently.all(1)(Seq.fill(3)(() => Thread.currentThread())) == Seq.fill(3)(caller))
    assert(Concurrently.all(4)(Seq.empty[() => Int]) == Nil)
  }
}
